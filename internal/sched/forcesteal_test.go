package sched

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/faultinject"
)

// TestForcedStealsRunEveryContinuationAsStolen arms the forced-steal
// failpoint on a one-worker runtime, where nothing can really be stolen:
// every fork must still begin a trace for its continuation, deposit it and
// merge it at the join, and the noncommutative deposit must come out in
// serial order.  With the failpoint firing on about half the forks the
// forced and the serial joins interleave in one tree.
func TestForcedStealsRunEveryContinuationAsStolen(t *testing.T) {
	for _, prob := range []float64{1, 0.5} {
		plan := faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: prob})
		deactivate := faultinject.Activate(plan)
		red := newOrderReducers()
		rt := New(Config{Workers: 1, Reducers: red})
		const n = 300
		err := rt.Run(func(c *Context) {
			c.ParallelForGrain(0, n, 1, func(c *Context, i int) { orderAppend(c, i) })
		})
		deactivate()
		if err != nil {
			t.Fatalf("prob %v: Run: %v", prob, err)
		}
		got := orderDeposit(red.root(0))
		if len(got) != n {
			t.Fatalf("prob %v: deposit of %d values, want %d", prob, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("prob %v: position %d holds %d: order diverged from serial", prob, i, v)
			}
		}
		st, forced := rt.Stats(), int64(plan.Fires(faultinject.SchedForceSteal))
		if st.Steals != forced || st.StalledJoins != forced || st.TasksExecuted != forced+1 {
			t.Errorf("prob %v: stats %+v, want %d steals, stalled joins and stolen tasks", prob, st, forced)
		}
		if forced == 0 || (prob == 1) != (forced == st.Forks) {
			t.Errorf("prob %v: %d of %d forks forced", prob, forced, st.Forks)
		}
		if err := rt.Quiescent(); err != nil {
			t.Errorf("prob %v: %v", prob, err)
		}
		rt.Close()
	}
}

// TestForcedStealsContainFailures: a panic and a cancellation inside a
// forced continuation cross its join as they would a thief's.
func TestForcedStealsContainFailures(t *testing.T) {
	defer faultinject.Activate(faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 1}))()
	rec := &recordingReducers{}
	rt := New(Config{Workers: 1, Reducers: rec})
	defer rt.Close()

	var pe *PanicError
	err := rt.RunErr(func(c *Context) {
		c.Fork(func(*Context) {}, func(c *Context) {
			c.Fork(func(*Context) {}, func(*Context) { panic("deep") })
		})
	})
	if !errors.As(err, &pe) || pe.Value != "deep" {
		t.Errorf("RunErr = %v, want a *PanicError for \"deep\"", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err = rt.RunContext(ctx, func(c *Context) {
		c.ParallelForGrain(0, 1000, 1, func(c *Context, i int) {
			if ran++; ran == 10 {
				cancel()
				for !c.Cancelled() {
					runtime.Gosched() // the context's goroutine sets the flag
				}
			}
		})
	})
	if err != context.Canceled || ran != 10 {
		t.Errorf("RunContext = %v after %d leaves, want context.Canceled after 10", err, ran)
	}
	if b, e := rec.begins.Load(), rec.ends.Load(); b != e {
		t.Errorf("%d traces begun, %d ended", b, e)
	}
	if err := rt.Quiescent(); err != nil {
		t.Error(err)
	}
}
