// Regression tests for job-boundary failure containment: a monoid that
// panics mid-hypermerge must not leak pagepool pages or arena view blocks,
// and a cancelled job must settle fully, contribute nothing, and leave the
// engine reusable.
package cilkm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	cilkm "repro"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/reducers"
)

// TestReducePanicConservesResources arms the monoid/reduce failpoint so a
// hypermerge reduce of a job panics — the first one after a real steal,
// then the first, a middle and the last pair of a 300-pair deposit — and
// asserts, on both engines, that the failure is contained, the pagepool is
// conserved (every page fetched for view transferal came back), the view
// arenas balance, and the engine produces exact results once the fault is
// gone.
func TestReducePanicConservesResources(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			s := newChaosSession(mech)
			defer s.Close()
			sum := cilkm.NewAdd[int](s.Engine())

			plan := newPlan(7).Arm(faultinject.MonoidReduce, faultinject.Rule{Prob: 1, Limit: 1})
			deactivate := faultinject.Activate(plan)
			deactivated := false
			defer func() {
				if !deactivated {
					deactivate()
				}
			}()

			// A hypermerge only happens when a continuation is stolen, so
			// retry the sleepy job until the armed fault actually fires.
			var jobErr error
			succeeded := 0
			for attempt := 0; attempt < 20 && jobErr == nil; attempt++ {
				jobErr = s.RunErr(func(c *cilkm.Context) {
					c.ParallelForGrain(0, 100, 1, func(c *cilkm.Context, i int) {
						time.Sleep(10 * time.Microsecond)
						sum.Add(c, 1)
					})
				})
				if jobErr == nil {
					succeeded++
				}
				if qerr := s.Quiescent(); qerr != nil {
					t.Fatalf("attempt %d (err=%v): engine not quiescent: %v", attempt, jobErr, qerr)
				}
			}
			if jobErr == nil {
				t.Fatalf("monoid/reduce fault never fired in 20 jobs (no steals?)")
			}
			var fault *faultinject.Fault
			if !errors.As(jobErr, &fault) || fault.ID != faultinject.MonoidReduce {
				t.Fatalf("job failed with %v, want a monoid/reduce fault", jobErr)
			}
			if mm, ok := s.Engine().(*core.MM); ok {
				if out := mm.PoolStats().Outstanding(); out != 0 {
					t.Fatalf("reduce panic leaked %d pagepool pages", out)
				}
			}
			deactivate()
			deactivated = true

			// The failed job contributed nothing; clean jobs stay exact.
			if got, want := sum.Value(), succeeded*100; got != want {
				t.Fatalf("failed job leaked a partial contribution: sum=%d want %d", got, want)
			}
			if err := s.RunErr(func(c *cilkm.Context) {
				c.ParallelForGrain(0, 100, 1, func(c *cilkm.Context, i int) { sum.Add(c, 1) })
			}); err != nil {
				t.Fatalf("clean job after reduce panic: %v", err)
			}
			if got, want := sum.Value(), (succeeded+1)*100; got != want {
				t.Fatalf("sum=%d after clean job, want %d", got, want)
			}
			if err := s.Quiescent(); err != nil {
				t.Fatalf("engine not quiescent after recovery: %v", err)
			}

			// The same fault at a chosen pair of a wide deposit, without
			// needing a thief: the job drives one transferal and hypermerge
			// on its own worker, over enough reducers to span two SPA pages.
			// Whatever was merged, killed or still deposited when the reduce
			// panicked must be settled exactly once.
			const pairs = 300
			sums := make([]*reducers.Add[int], pairs)
			for i := range sums {
				sums[i] = cilkm.NewAdd[int](s.Engine())
			}
			cycle := func(c *cilkm.Context) {
				eng, w := s.Engine(), c.Worker()
				for _, a := range sums {
					a.Add(c, 1)
				}
				tr := eng.BeginTrace(w)
				for _, a := range sums {
					a.Add(c, 1)
				}
				d := eng.EndTrace(w, tr)
				eng.Merge(w, w.CurrentTrace(), d)
			}
			for _, pair := range []uint64{0, pairs / 2, pairs - 1} {
				deactivate := faultinject.Activate(newPlan(7).Arm(
					faultinject.MonoidReduce, faultinject.Rule{Prob: 1, After: pair, Limit: 1}))
				err := s.RunErr(cycle)
				deactivate()
				if !errors.As(err, &fault) || fault.ID != faultinject.MonoidReduce {
					t.Fatalf("pair %d: job failed with %v, want a monoid/reduce fault", pair, err)
				}
				if qerr := s.Quiescent(); qerr != nil {
					t.Fatalf("pair %d: engine not quiescent: %v", pair, qerr)
				}
				for i, a := range sums {
					if got := a.Value(); got != 0 {
						t.Fatalf("pair %d: failed job leaked %d into reducer %d", pair, got, i)
					}
				}
			}
			if err := s.RunErr(cycle); err != nil {
				t.Fatalf("clean wide job after reduce panics: %v", err)
			}
			for i, a := range sums {
				if got := a.Value(); got != 2 {
					t.Fatalf("reducer %d = %d after the clean wide job, want 2", i, got)
				}
			}
			if err := s.Quiescent(); err != nil {
				t.Fatalf("engine not quiescent after the wide jobs: %v", err)
			}
		})
	}
}

// TestRunContextCancelSettles cancels a long job mid-flight and asserts the
// containment contract: RunContext returns the context error (never hangs),
// the cancelled job contributes nothing to the reducers, the engine is
// quiescent, and the session remains fully usable.
func TestRunContextCancelSettles(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			s := newChaosSession(mech)
			defer s.Close()
			sum := cilkm.NewAdd[int](s.Engine())

			ctx, cancel := context.WithCancel(context.Background())
			started := make(chan struct{})
			go func() {
				<-started
				cancel()
			}()
			err := s.RunContext(ctx, func(c *cilkm.Context) {
				c.ParallelForGrain(0, 1<<20, 1, func(c *cilkm.Context, i int) {
					if i == 0 {
						close(started)
					}
					time.Sleep(5 * time.Microsecond)
					sum.Add(c, 1)
				})
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext returned %v, want context.Canceled", err)
			}
			if got := sum.Value(); got != 0 {
				t.Fatalf("cancelled job leaked a partial contribution: sum=%d", got)
			}
			if qerr := s.Quiescent(); qerr != nil {
				t.Fatalf("engine not quiescent after cancellation: %v", qerr)
			}
			if err := s.RunErr(func(c *cilkm.Context) {
				c.ParallelForGrain(0, 200, 1, func(c *cilkm.Context, i int) { sum.Add(c, 1) })
			}); err != nil {
				t.Fatalf("job after cancellation: %v", err)
			}
			if got := sum.Value(); got != 200 {
				t.Fatalf("sum=%d after post-cancel job, want 200", got)
			}
		})
	}
}
