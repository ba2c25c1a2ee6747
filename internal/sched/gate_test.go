package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// gateSample reads the wake gate's exported counters.
func gateSample(rt *Runtime) (sent, gated, released int64) {
	rt.SampleMetrics(func(m metrics.MetricSample) {
		switch m.Name {
		case "cilkm_sched_wakeups_sent_total":
			sent = int64(m.Value)
		case "cilkm_sched_wakeups_gated_total":
			gated = int64(m.Value)
		case "cilkm_sched_gate_releases_total":
			released = int64(m.Value)
		}
	})
	return
}

// gatedRuntime returns a two-worker runtime whose one pool worker
// is parked and whose next root starts behind a gate of hold ns: the
// estimate says a wake-up costs hold/gateFactor and no root has run yet, so
// the prediction for the next one is "shorter than that".
func gatedRuntime(t *testing.T, hold int64) *Runtime {
	t.Helper()
	rt := New(Config{Workers: 2})
	waitAsleep(t, rt, rt.Workers()-1)
	rt.wakeCost.Store(hold / gateFactor)
	return rt
}

// gatedService is gatedRuntime for a two-worker service, whose two workers
// are both pool workers: each root a worker pops starts behind a gate of
// hold ns until one it ran outlives that.
func gatedService(t *testing.T, hold int64) *Service {
	t.Helper()
	s := NewService(Config{Workers: 2}, ServiceConfig{})
	waitAsleep(t, s.rt, s.rt.Workers())
	s.rt.wakeCost.Store(hold / gateFactor)
	return s
}

// waitAsleep waits until n workers are parked with no wake token in flight:
// every token sent so far has woken a worker (unparks), and each woken one
// has parked again since (parks).  Registration in rt.parked is not enough:
// a worker still counts there between a token's send and its wake-up, and
// an awake thief that steals a root's task in the instant between its push
// and the push's emptiness check takes that push out of every count.
func waitAsleep(t *testing.T, rt *Runtime, n int) {
	t.Helper()
	start := nanotime()
	for !asleep(rt, n) {
		if nanotime()-start > int64(10*time.Second) {
			t.Fatalf("workers never fell asleep: %d of %d parked, %d tokens sent, %d unparks", rt.parked.Load(), n, rt.wakesSent.Load(), rt.unparks.Load())
		}
		runtime.Gosched()
	}
}

// asleep reports whether exactly n pool workers are parked with no wake
// token in flight (waitAsleep).
func asleep(rt *Runtime, n int) bool {
	sent := rt.wakesSent.Load()
	unparks := rt.unparks.Load()
	return unparks >= sent && rt.parks.Load()-unparks == int64(n) && rt.parked.Load() == int32(n)
}

// TestGateShortRootWakesNobody: a root that ends inside its gate forks and
// joins without a single wake token, and its thief sleeps through it.
func TestGateShortRootWakesNobody(t *testing.T) {
	rt := gatedRuntime(t, 1<<40)
	defer rt.Close()
	unparks := rt.unparks.Load()
	for i := 0; i < 100; i++ {
		if err := rt.Run(func(c *Context) {
			c.ParallelForGrain(0, 64, 1, func(*Context, int) {})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	sent, gated, released := gateSample(rt)
	// The deque goes empty→non-empty once per level of the loop's right
	// spine: log₂ 64 pushes a root that would each have signalled.
	if sent != 0 || released != 0 || gated != 100*6 {
		t.Errorf("%d tokens sent, %d wake-ups gated, %d gates released; want 0, 600, 0", sent, gated, released)
	}
	if st := rt.Stats(); st.Steals != 0 || st.Forks != 100*63 {
		t.Errorf("stats %+v, want no steals and %d forks", st, 100*63)
	}
	if rt.parked.Load() != 1 || rt.unparks.Load() != unparks {
		t.Errorf("the pool worker was woken: parked %d, %d unparks", rt.parked.Load(), rt.unparks.Load()-unparks)
	}
	if err := rt.Quiescent(); err != nil {
		t.Error(err)
	}
}

// TestGateReleasesLongRoot: a root that starts gated and turns out long —
// three leaves of about 1 µs, then 5 ms in 100 µs leaves — signals at the
// first fork checkpoint past its gate, not before, and from there on its
// thief finds work.  Every attempt must release the gate exactly once, with
// a token, and its thief must run at least one of the 50 leaves, none
// before the gate could open.  Leaf 10, a millisecond past the gate, waits
// for the thief with the rest of the range still on the root's deque, so
// that a wake-up the OS delays beyond the root's 5 ms cannot fail the
// attempt; how late the thief arrives is logged, not judged.
func TestGateReleasesLongRoot(t *testing.T) {
	const hold, attempts = 200_000, 3
	for attempt := 0; attempt < attempts; attempt++ {
		rt := gatedRuntime(t, hold)
		var sentAfterShort, began, shortEnd, firstForeign int64
		var foreign atomic.Int64
		err := rt.Run(func(c *Context) {
			began = nanotime()
			c.Fork(
				func(c *Context) {
					c.ForkN(func(*Context) { spinFor(1_000) }, func(*Context) { spinFor(1_000) }, func(*Context) { spinFor(1_000) })
					sentAfterShort, shortEnd = rt.wakesSent.Load(), nanotime()
				},
				func(c *Context) {
					c.ParallelForGrain(0, 50, 1, func(c *Context, i int) {
						if c.WorkerID() != 0 && foreign.Add(1) == 1 {
							firstForeign = nanotime()
						}
						spinFor(100_000)
						for start := nanotime(); i == 10 && foreign.Load() == 0 && nanotime()-start < int64(10*time.Second); {
							runtime.Gosched() // a thief that shares the processor
						}
					})
				})
		})
		rt.Close()
		if err != nil {
			t.Fatalf("attempt %d: Run: %v", attempt, err)
		}
		sent, gated, released := gateSample(rt)
		if sentAfterShort != 0 && shortEnd-began < hold {
			t.Errorf("attempt %d: %d tokens sent during the first few µs, inside the gate", attempt, sentAfterShort)
		}
		if released != 1 || gated == 0 || sent == 0 {
			t.Errorf("attempt %d: %d tokens sent, %d wake-ups gated, %d gates released; want the gate released exactly once, with a token", attempt, sent, gated, released)
		}
		n := foreign.Load()
		if n == 0 {
			t.Errorf("attempt %d: the thief of a released root ran none of its 50 leaves", attempt)
			continue
		}
		if firstForeign < began+hold {
			t.Errorf("attempt %d: the thief began a leaf %v after the root began, inside its gate of %v", attempt, time.Duration(firstForeign-began), time.Duration(hold))
		}
		// Outliving the gate is noticed within a leaf; the rest is the
		// wake-up.
		late := firstForeign - (began + hold + 100_000)
		t.Logf("attempt %d: the thief ran %d of 50 leaves, the first %v after the gate could first be seen expired; estimate now %d ns", attempt, n, time.Duration(late), rt.wakeCost.Load())
	}
}

// TestGateShortServiceJobWakesNobody is TestGateShortRootWakesNobody
// through Service.Submit: a service job is a root like a Run's, so a short
// one wakes no parked thief.  Each Submit finds both workers asleep and
// wakes one with the only token it sends; that worker runs the job behind
// its gate while the other sleeps through it.
func TestGateShortServiceJobWakesNobody(t *testing.T) {
	const jobs = 100
	s := gatedService(t, 1<<40)
	defer s.Close()
	for i := 0; i < jobs; i++ {
		if err := submitWait(s, func(c *Context) {
			c.ParallelForGrain(0, 64, 1, func(*Context, int) {})
		}); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		waitAsleep(t, s.rt, 2)
	}
	sent, gated, released := gateSample(s.rt)
	if sent-jobs != 0 || released != 0 || gated != jobs*6 {
		t.Errorf("%d tokens sent by the jobs, %d wake-ups gated, %d gates released; want 0, %d, 0", sent-jobs, gated, released, jobs*6)
	}
	if st := s.rt.Stats(); st.Steals != 0 || st.Forks != jobs*63 {
		t.Errorf("stats %+v, want no steals and %d forks", st, jobs*63)
	}
}

// TestGateReleasesLongServiceJob is TestGateReleasesLongRoot's count
// through Service.Submit: a service job that starts gated and turns out
// long opens its gate once, and the opening wakes the sleeping worker.
func TestGateReleasesLongServiceJob(t *testing.T) {
	s := gatedService(t, 200_000)
	defer s.Close()
	if err := submitWait(s, func(c *Context) {
		c.Fork(
			func(c *Context) {
				c.ForkN(func(*Context) { spinFor(1_000) }, func(*Context) { spinFor(1_000) }, func(*Context) { spinFor(1_000) })
			},
			func(c *Context) {
				c.ParallelForGrain(0, 50, 1, func(*Context, int) { spinFor(100_000) })
			})
	}); err != nil {
		t.Fatalf("job: %v", err)
	}
	// The Submit sent one token, to the worker that ran the job.
	sent, gated, released := gateSample(s.rt)
	if released != 1 || gated == 0 || sent-1 == 0 {
		t.Errorf("%d tokens sent by the job, %d wake-ups gated, %d gates released; want the gate released exactly once, with a token", sent-1, gated, released)
	}
}

// TestGateProbeAndPrediction covers the two ways a root starts ungated with
// a high estimate in place: the previous root on the identity ran longer
// than the gate, or it is the one root in gateProbeEvery that signals
// regardless so that wake-ups keep being measured.
func TestGateProbeAndPrediction(t *testing.T) {
	rt := gatedRuntime(t, 20_000)
	defer rt.Close()
	fork := func(c *Context) { c.Fork(func(*Context) {}, func(*Context) {}) }
	if err := rt.Run(func(c *Context) { spinFor(40_000) }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(fork); err != nil {
		t.Fatal(err)
	}
	waitAsleep(t, rt, 1)
	if sent, gated, _ := gateSample(rt); sent != 1 || gated != 0 {
		t.Errorf("after a long root: %d tokens sent, %d gated; want the next root's push to signal", sent, gated)
	}
	// Far above any root's length, so no root outlives its gate and sends
	// a release token for a push already counted as gated, whatever the
	// collector or the race detector did to it.
	rt.wakeCost.Store(1 << 40)
	before, _, _ := gateSample(rt)
	for i := 0; i < 2*gateProbeEvery; i++ {
		if err := rt.Run(fork); err != nil {
			t.Fatal(err)
		}
		waitAsleep(t, rt, 1) // a probe woke it: the next one must find it asleep again
		rt.wakeCost.Store(1 << 40)
	}
	sent, gated, _ := gateSample(rt)
	if probes := sent - before; probes != 2 || gated != 2*gateProbeEvery-2 {
		t.Errorf("%d probes and %d gated pushes over %d short roots, want 2 and %d", probes, gated, 2*gateProbeEvery, 2*gateProbeEvery-2)
	}
}

// TestForkAllocFreeBehindGate is BenchmarkForkNoSteal's 0 allocs/op as a
// test, on a root that is gated so that the clock check after the left
// branch runs at every fork.
func TestForkAllocFreeBehindGate(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	rt.wakeCost.Store(1 << 40)
	var allocs float64
	if err := rt.Run(func(c *Context) {
		if !c.w.wakeGated() {
			t.Error("the root is not behind the gate")
		}
		allocs = testing.AllocsPerRun(1000, func() { c.Fork(func(*Context) {}, func(*Context) {}) })
	}); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Fork on the no-steal path allocates %.1f objects, want 0", allocs)
	}
}

// TestForkNAllocFree: each level of a ForkN pushes the pooled task carrying
// the remaining branches, so a Run whose ForkN of 8 branches is not stolen
// allocates what an empty Run does.
func TestForkNAllocFree(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	branches := make([]func(*Context), 8)
	ran := 0
	for i := range branches {
		branches[i] = func(*Context) { ran++ }
	}
	empty := testing.AllocsPerRun(200, func() { _ = rt.Run(func(*Context) {}) })
	forkN := testing.AllocsPerRun(200, func() { _ = rt.Run(func(c *Context) { c.ForkN(branches...) }) })
	if forkN != empty {
		t.Errorf("a Run of a ForkN of 8 branches allocates %.1f objects, an empty Run %.1f", forkN, empty)
	}
	if ran != 8*201 {
		t.Errorf("%d branches ran, want %d", ran, 8*201)
	}
}
