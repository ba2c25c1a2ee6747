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
// every fork must still begin a trace for its continuation — a ParallelFor
// split's is the right half's range, carried in the task — deposit it and
// merge it at the join, and the noncommutative deposit must come out in
// serial order, each index exactly once.  The range has odd length, so
// halves are uneven at every grain.  With the failpoint firing on about
// half the forks the forced and the serial joins interleave in one tree.
// A ForkN of 1 to 9 branches, whose continuation at each level is the task
// carrying the remaining branches, must do the same with its n−1 forks.
func TestForcedStealsRunEveryContinuationAsStolen(t *testing.T) {
	const n = 1001
	for _, prob := range []float64{1, 0.5} {
		for _, grain := range []int{1, 3, 8} {
			plan := faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: prob})
			deactivate := faultinject.Activate(plan)
			red := newOrderReducers()
			rt := New(Config{Workers: 1, Reducers: red})
			err := rt.Run(func(c *Context) {
				c.ParallelForGrain(0, n, grain, func(c *Context, i int) { orderAppend(c, i) })
			})
			deactivate()
			if err != nil {
				t.Fatalf("prob %v, grain %d: Run: %v", prob, grain, err)
			}
			got := orderDeposit(red.root(0))
			if len(got) != n {
				t.Fatalf("prob %v, grain %d: deposit of %d values, want %d", prob, grain, len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("prob %v, grain %d: position %d holds %d: order diverged from serial", prob, grain, i, v)
				}
			}
			st, forced := rt.Stats(), int64(plan.Fires(faultinject.SchedForceSteal))
			if st.Steals != forced || st.StalledJoins != forced || st.TasksExecuted != forced+1 {
				t.Errorf("prob %v, grain %d: stats %+v, want %d steals, stalled joins and stolen tasks", prob, grain, st, forced)
			}
			if want := splits(n, grain); st.Forks != want || st.ParallelForSpl != want {
				t.Errorf("prob %v, grain %d: %d forks, %d splits, want %d of each", prob, grain, st.Forks, st.ParallelForSpl, want)
			}
			if forced == 0 || (prob == 1) != (forced == st.Forks) {
				t.Errorf("prob %v, grain %d: %d of %d forks forced", prob, grain, forced, st.Forks)
			}
			if err := rt.Quiescent(); err != nil {
				t.Errorf("prob %v, grain %d: %v", prob, grain, err)
			}
			rt.Close()
		}
		for n := 1; n <= 9; n++ {
			branches := make([]func(*Context), n)
			for k := range branches {
				branches[k] = func(c *Context) { orderAppend(c, k) }
			}
			plan := faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: prob})
			deactivate := faultinject.Activate(plan)
			red := newOrderReducers()
			rt := New(Config{Workers: 1, Reducers: red})
			err := rt.Run(func(c *Context) { c.ForkN(branches...) })
			deactivate()
			if err != nil {
				t.Fatalf("prob %v, ForkN of %d: Run: %v", prob, n, err)
			}
			got := orderDeposit(red.root(0))
			if len(got) != n {
				t.Fatalf("prob %v, ForkN of %d: deposit of %d values, want %d", prob, n, len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("prob %v, ForkN of %d: position %d holds %d: order diverged from serial", prob, n, i, v)
				}
			}
			st, forced := rt.Stats(), int64(plan.Fires(faultinject.SchedForceSteal))
			if st.Steals != forced || st.StalledJoins != forced || st.TasksExecuted != forced+1 {
				t.Errorf("prob %v, ForkN of %d: stats %+v, want %d steals, stalled joins and stolen tasks", prob, n, st, forced)
			}
			if want := int64(n - 1); st.Forks != want {
				t.Errorf("prob %v, ForkN of %d: %d forks, want %d", prob, n, st.Forks, want)
			}
			if prob == 1 && forced != st.Forks {
				t.Errorf("prob %v, ForkN of %d: %d of %d forks forced", prob, n, forced, st.Forks)
			}
			if err := rt.Quiescent(); err != nil {
				t.Errorf("prob %v, ForkN of %d: %v", prob, n, err)
			}
			rt.Close()
		}
	}
}

// splits is how many times ParallelForGrain halves a range of n iterations.
func splits(n, grain int) int64 {
	if n <= grain {
		return 0
	}
	return 1 + splits(n/2, grain) + splits(n-n/2, grain)
}

// TestForcedStealsCancelledRangeHalf: a ParallelFor split's continuation
// carries its job like a Fork's, so a cancellation during the left half
// reaches the stolen right half before it begins a trace — its leaves never
// run — and crosses the join as the cancellation token.
func TestForcedStealsCancelledRangeHalf(t *testing.T) {
	defer faultinject.Activate(faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 1}))()
	rec := &recordingReducers{}
	rt := New(Config{Workers: 1, Reducers: rec})
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var ran []int
	err := rt.RunContext(ctx, func(c *Context) {
		c.ParallelForGrain(0, 2, 1, func(c *Context, i int) {
			ran = append(ran, i)
			if i == 0 {
				cancel()
				for !c.Cancelled() {
					runtime.Gosched() // the context's goroutine sets the flag
				}
			}
		})
	})
	if err != context.Canceled || len(ran) != 1 {
		t.Errorf("RunContext = %v after leaves %v, want context.Canceled after leaf 0 alone", err, ran)
	}
	// The root's trace is the only one: the stolen half was refused at its
	// start, which counts it as an executed task.
	if b, e := rec.begins.Load(), rec.ends.Load(); b != 1 || e != 1 {
		t.Errorf("%d traces begun, %d ended, want 1 of each", b, e)
	}
	if st := rt.Stats(); st.Steals != 1 || st.TasksExecuted != 2 {
		t.Errorf("stats %+v, want 1 steal and 2 tasks executed", st)
	}
	if err := rt.Quiescent(); err != nil {
		t.Error(err)
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
