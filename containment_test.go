// Regression tests for job-boundary failure containment: a monoid that
// panics mid-hypermerge must not leak pagepool pages or arena view blocks,
// and a cancelled job must settle fully, contribute nothing, and leave the
// engine reusable.
package cilkm_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	cilkm "repro"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
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

// within runs f on its own goroutine and fails the test when f has not
// returned after d, so a wedged reducer is a failure, not a hung suite; a
// panic f lets escape is reported the same way.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s panicked on the caller: %v", what, p)
			}
		}()
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// containDeadline bounds every step the tests below expect not to block.
const containDeadline = 10 * time.Second

// armedReduce is an int sum whose Reduce panics while armed.  The jobs that
// use it never fork, so the only Reduce they reach is the root merge's
// leftmost ⊗ root view.
func armedReduce(armed *atomic.Bool) cilkm.TypedMonoid[int] {
	return cilkm.TypedFuncMonoid[int]{
		IdentityFn: func() *int { return new(int) },
		ReduceFn: func(l, r *int) *int {
			if armed.Load() {
				panic("reduce boom")
			}
			*l += *r
			return l
		},
	}
}

// TestFailedBranchViewsDieWhereItFailed forces a fork's continuation to run
// as a stolen task, which writes a view and panics.  The forking strand wrote
// the same reducer first, so a deposit from the failed branch would meet its
// pair at the join and reach the monoid's Reduce: user code run on behalf of
// a job that has already failed, free to panic over the failure it follows.
// The branch's views are discarded where it failed instead: no Reduce call,
// the original payload reported, nothing held and nothing contributed.
func TestFailedBranchViewsDieWhereItFailed(t *testing.T) {
	plan := everyForkForced()
	defer faultinject.Activate(plan)()
	for _, mech := range cilkm.Mechanisms() {
		t.Run(mech.String(), func(t *testing.T) {
			s := newChaosSession(mech)
			defer s.Close()
			var reduces atomic.Int64
			h := cilkm.NewCustomOf[int](s.Engine(), cilkm.TypedFuncMonoid[int]{
				IdentityFn: func() *int { return new(int) },
				ReduceFn: func(l, r *int) *int {
					reduces.Add(1)
					*l += *r
					return l
				},
			})
			err := s.RunErr(func(c *cilkm.Context) {
				*h.View(c) += 1
				c.Fork(func(*cilkm.Context) {}, func(c *cilkm.Context) {
					*h.View(c) += 2
					panic("branch boom")
				})
			})
			var pe *cilkm.PanicError
			if !errors.As(err, &pe) || pe.Value != "branch boom" {
				t.Errorf("RunErr = %v, want a *PanicError carrying \"branch boom\"", err)
			}
			if n := reduces.Load(); n != 0 {
				t.Errorf("%d Reduce calls on the failed branch's views, want none", n)
			}
			if qerr := s.Quiescent(); qerr != nil {
				t.Errorf("not quiescent after the failed branch: %v", qerr)
			}
			if got := *h.Peek(); got != 0 {
				t.Errorf("the failed job contributed %d", got)
			}
		})
	}
	if plan.Fires(faultinject.SchedForceSteal) == 0 {
		t.Error("no fork was forced")
	}
}

// directoryStats reads the engine's directory counters.
func directoryStats(eng cilkm.Engine) metrics.DirectoryStats {
	return eng.(interface {
		DirectoryStats() metrics.DirectoryStats
	}).DirectoryStats()
}

// TestRootMergeReducePanicServiceJob submits a job whose monoid panics in
// the root merge.  The engine's leftmost lock must be released on the way
// out, or whatever takes it next — the next job's root merge, a SetValue or
// a Snapshot of any reducer of the engine — never returns: Wait returns the
// *PanicError, the service runs the next job, and Close drains.
func TestRootMergeReducePanicServiceJob(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		t.Run(mech.String(), func(t *testing.T) {
			svc := cilkm.NewService(cilkm.WithMechanism(mech), cilkm.WithWorkers(2))
			submit := func(what string, fn func(*cilkm.Context, *cilkm.JobSession)) (err error) {
				t.Helper()
				h, serr := svc.Submit(context.Background(), fn)
				if serr != nil {
					t.Fatalf("%s: Submit: %v", what, serr)
				}
				within(t, containDeadline, what+": Wait", func() { err = h.Wait() })
				return err
			}
			var armed atomic.Bool
			armed.Store(true)
			err := submit("panicking job", func(c *cilkm.Context, js *cilkm.JobSession) {
				*cilkm.NewCustomOf[int](js, armedReduce(&armed)).View(c) += 7
			})
			var pe *cilkm.PanicError
			if !errors.As(err, &pe) || pe.Value != "reduce boom" {
				t.Fatalf("Wait = %v, want a *PanicError carrying \"reduce boom\"", err)
			}
			var sum *reducers.Add[int]
			if err := submit("next job", func(c *cilkm.Context, js *cilkm.JobSession) {
				sum = cilkm.NewAdd[int](js)
				sum.Add(c, 41)
			}); err != nil {
				t.Fatalf("next job on the same service: %v", err)
			}
			if got := sum.Value(); got != 41 {
				t.Errorf("next job's sum = %d, want 41", got)
			}
			if n := svc.Engine().Registered(); n != 0 {
				t.Errorf("%d reducers still registered after both jobs", n)
			}
			within(t, containDeadline, "Close", func() {
				if err := svc.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
		})
	}
}

// TestRootMergeReducePanicRunErr is the same failure through a Session:
// RunErr promises containment of the merge pipeline, so the root merge's
// panic comes back as a *PanicError, not as a raw panic on the caller, and
// the reducer, the engine and the session stay usable.
func TestRootMergeReducePanicRunErr(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		t.Run(mech.String(), func(t *testing.T) {
			s := newChaosSession(mech)
			var armed atomic.Bool
			armed.Store(true)
			h := cilkm.NewCustomOf[int](s.Engine(), armedReduce(&armed))
			var err error
			within(t, containDeadline, "RunErr", func() {
				err = s.RunErr(func(c *cilkm.Context) { *h.View(c) += 7 })
			})
			var pe *cilkm.PanicError
			if !errors.As(err, &pe) || pe.Value != "reduce boom" {
				t.Fatalf("RunErr = %v, want a *PanicError carrying \"reduce boom\"", err)
			}
			within(t, containDeadline, "Peek", func() { _ = *h.Peek() })
			if qerr := s.Quiescent(); qerr != nil {
				t.Fatalf("not quiescent after the contained root merge: %v", qerr)
			}
			armed.Store(false)
			before := *h.Peek()
			within(t, containDeadline, "clean Run", func() {
				if err := s.Run(func(c *cilkm.Context) { *h.View(c) += 5 }); err != nil {
					t.Errorf("clean Run: %v", err)
				}
			})
			if got := *h.Peek(); got != before+5 {
				t.Errorf("value after the clean Run = %d, want %d", got, before+5)
			}
			within(t, containDeadline, "Close", func() {
				h.Close()
				s.Close()
			})
		})
	}
}

// TestRootMergeReducePanicRun is the same failure through Session.Run, which
// re-raises a failed root as a *PanicError: the root merge is part of the
// root, so its panic is re-raised wrapped, not as the bare value, and the
// session is quiescent and exact afterwards.
func TestRootMergeReducePanicRun(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		t.Run(mech.String(), func(t *testing.T) {
			s := newChaosSession(mech)
			var armed atomic.Bool
			armed.Store(true)
			h := cilkm.NewCustomOf[int](s.Engine(), armedReduce(&armed))
			var raised any
			within(t, containDeadline, "Run", func() {
				defer func() { raised = recover() }()
				_ = s.Run(func(c *cilkm.Context) { *h.View(c) += 7 })
			})
			if pe, ok := raised.(*cilkm.PanicError); !ok || pe.Value != "reduce boom" {
				t.Fatalf("Run raised %#v, want a *PanicError carrying \"reduce boom\"", raised)
			}
			if qerr := s.Quiescent(); qerr != nil {
				t.Fatalf("not quiescent after the failed root merge: %v", qerr)
			}
			armed.Store(false)
			before := *h.Peek()
			within(t, containDeadline, "clean Run", func() {
				if err := s.Run(func(c *cilkm.Context) { *h.View(c) += 5 }); err != nil {
					t.Errorf("clean Run: %v", err)
				}
			})
			if got := *h.Peek(); got != before+5 {
				t.Errorf("value after the clean Run = %d, want %d", got, before+5)
			}
			within(t, containDeadline, "Close", func() {
				h.Close()
				s.Close()
			})
		})
	}
}

// TestReduceReadsLeftmostDuringRootMerge pins that a read of a leftmost
// view takes no lock.  A root merge holds its engine's leftmost lock for the
// whole deposit, and every reducer of the engine shares it, so a Reduce
// that reads another reducer's Value during the root merge would wedge the
// job if that read locked.  On both engines, through a Session and through
// a Service running two jobs at once, the Reduce of a custom sum reads a
// second reducer of the same engine; every step returns within the
// deadline, the root merge ran that Reduce, and the sums are the serial
// ones.
func TestReduceReadsLeftmostDuringRootMerge(t *testing.T) {
	const n, want, otherValue = 64, 64 * 63 / 2, 3
	// readingSum is the custom sum: its Reduce reads other, and counts the
	// folds into *h's leftmost view, which only the root merge makes.
	readingSum := func(other *reducers.Add[int], h **reducers.CustomOf[int], rootFolds *atomic.Int64) cilkm.TypedMonoid[int] {
		return cilkm.TypedFuncMonoid[int]{
			IdentityFn: func() *int { return new(int) },
			ReduceFn: func(l, r *int) *int {
				if got := other.Value(); got != otherValue {
					t.Errorf("other reducer read %d inside Reduce, want %d", got, otherValue)
				}
				if l == (*h).Peek() {
					rootFolds.Add(1)
				}
				*l += *r
				return l
			},
		}
	}
	body := func(h *reducers.CustomOf[int]) func(*cilkm.Context) {
		return func(c *cilkm.Context) {
			c.ParallelForGrain(0, n, 1, func(c *cilkm.Context, i int) { *h.View(c) += i })
		}
	}
	for _, mech := range cilkm.Mechanisms() {
		t.Run(mech.String()+"/session", func(t *testing.T) {
			s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(2))
			other := cilkm.NewAdd[int](s.Engine())
			other.SetValue(otherValue)
			var h *reducers.CustomOf[int]
			var rootFolds atomic.Int64
			h = cilkm.NewCustomOf[int](s.Engine(), readingSum(other, &h, &rootFolds))
			const runs = 20
			within(t, containDeadline, "Runs", func() {
				for range runs {
					if err := s.Run(body(h)); err != nil {
						t.Errorf("Run: %v", err)
					}
				}
			})
			if got := *h.Peek(); got != runs*want {
				t.Errorf("sum = %d after %d Runs, want %d", got, runs, runs*want)
			}
			if rootFolds.Load() == 0 {
				t.Error("no root merge ran the reading Reduce")
			}
			within(t, containDeadline, "Close", func() {
				h.Close()
				other.Close()
				s.Close()
			})
		})
		t.Run(mech.String()+"/service", func(t *testing.T) {
			svc := cilkm.NewService(cilkm.WithMechanism(mech), cilkm.WithWorkers(2))
			other := cilkm.NewAdd[int](svc.Engine())
			other.SetValue(otherValue)
			var rootFolds atomic.Int64
			submit := func() (*cilkm.JobHandle, **reducers.CustomOf[int]) {
				h := new(*reducers.CustomOf[int])
				jh, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
					*h = cilkm.NewCustomOf[int](js, readingSum(other, h, &rootFolds))
					body(*h)(c)
				})
				if err != nil {
					// within runs this on another goroutine: no Fatalf here.
					t.Errorf("Submit: %v", err)
					return nil, nil
				}
				return jh, h
			}
			within(t, containDeadline, "job pairs", func() {
				for range 20 {
					j1, h1 := submit()
					j2, h2 := submit()
					for _, j := range []struct {
						jh *cilkm.JobHandle
						h  **reducers.CustomOf[int]
					}{{j1, h1}, {j2, h2}} {
						if j.jh == nil {
							continue
						}
						if err := j.jh.Wait(); err != nil {
							t.Errorf("Wait: %v", err)
						} else if got := *(*j.h).Peek(); got != want {
							t.Errorf("job sum = %d, want %d", got, want)
						}
					}
				}
			})
			if rootFolds.Load() == 0 {
				t.Error("no root merge ran the reading Reduce")
			}
			within(t, containDeadline, "Close", func() {
				other.Close()
				if err := svc.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
		})
	}
}

// TestNilViewMonoidNamedFailures pins the two view checks a typed monoid can
// still trip.  An Identity that returns nil fails registration before an
// address is taken; a Reduce that returns nil panics with the reducer's id,
// in a worker's hypermerge and in the root merge alike, and is contained at
// the job boundary.  Neither costs the directory an address.
func TestNilViewMonoidNamedFailures(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		t.Run(mech.String(), func(t *testing.T) {
			s := newChaosSession(mech)
			defer s.Close()
			eng := s.Engine()
			warm := cilkm.NewAdd[int](eng)
			warm.Close() // one recycled address on the free list
			before := directoryStats(eng)

			_, err := reducers.TryNewHandle[int](eng, cilkm.TypedFuncMonoid[int]{
				IdentityFn: func() *int { return nil },
				ReduceFn:   func(l, r *int) *int { return l },
			})
			if err == nil || !strings.Contains(err.Error(), "Identity returned a nil view") {
				t.Fatalf("registering a nil-Identity monoid: err = %v, want the named failure", err)
			}
			if after := directoryStats(eng); after.FreeSlots != before.FreeSlots || after.FreshSlots != before.FreshSlots {
				t.Errorf("failed registration moved the directory: FreeSlots %d → %d, FreshSlots %d → %d",
					before.FreeSlots, after.FreeSlots, before.FreshSlots, after.FreshSlots)
			}

			h := cilkm.NewCustomOf[int](eng, cilkm.TypedFuncMonoid[int]{
				IdentityFn: func() *int { return new(int) },
				ReduceFn:   func(l, r *int) *int { return nil },
			})
			named := fmt.Sprintf("reducer %d: Reduce returned a nil view", h.Reducer().ID())
			for what, job := range map[string]func(c *cilkm.Context){
				"root merge": func(c *cilkm.Context) { *h.View(c) += 1 },
				"hypermerge": func(c *cilkm.Context) {
					w := c.Worker()
					*h.View(c) += 1
					tr := eng.BeginTrace(w)
					*h.View(c) += 1
					eng.Merge(w, w.CurrentTrace(), eng.EndTrace(w, tr))
				},
			} {
				var err error
				within(t, containDeadline, what, func() { err = s.RunErr(job) })
				var pe *cilkm.PanicError
				if !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), named) {
					t.Fatalf("%s: RunErr = %v, want a *PanicError naming %q", what, err, named)
				}
				if qerr := s.Quiescent(); qerr != nil {
					t.Fatalf("%s: not quiescent: %v", what, qerr)
				}
			}
			within(t, containDeadline, "Close of the handle", h.Close)
			if after := directoryStats(eng); after.FreshSlots != before.FreshSlots || after.FreeSlots != before.FreeSlots {
				t.Errorf("nil-Reduce reducer leaked an address: FreeSlots %d → %d, FreshSlots %d → %d",
					before.FreeSlots, after.FreeSlots, before.FreshSlots, after.FreshSlots)
			}
		})
	}
}

// TestForeignRuntimeLookupTraps pins the trap for a reducer used from a
// runtime its engine does not serve, on every home/away mechanism pair: a
// handle never used at home resolves nothing on the other session's
// workers, so the job fails with core.ErrForeignRuntime, neither session
// is left holding anything, and the handle still sums correctly at home.
func TestForeignRuntimeLookupTraps(t *testing.T) {
	for _, home := range cilkm.Mechanisms() {
		for _, away := range cilkm.Mechanisms() {
			t.Run(home.String()+"/"+away.String(), func(t *testing.T) {
				hs := cilkm.New(cilkm.WithMechanism(home), cilkm.WithWorkers(2))
				defer hs.Close()
				as := cilkm.New(cilkm.WithMechanism(away), cilkm.WithWorkers(2))
				defer as.Close()
				sum := cilkm.NewAdd[int](hs.Engine())
				err := as.RunErr(func(c *cilkm.Context) { sum.Add(c, 1) })
				if !errors.Is(err, core.ErrForeignRuntime) {
					t.Fatalf("away RunErr = %v, want %v", err, core.ErrForeignRuntime)
				}
				for _, s := range []*cilkm.Session{hs, as} {
					if err := s.Quiescent(); err != nil {
						t.Fatalf("not quiescent after the trap: %v", err)
					}
				}
				if err := hs.Run(func(c *cilkm.Context) {
					c.ParallelFor(0, 1000, func(c *cilkm.Context, i int) { sum.Add(c, 1) })
				}); err != nil {
					t.Fatalf("home Run: %v", err)
				}
				if got := sum.Value(); got != 1000 {
					t.Fatalf("sum = %d, want 1000", got)
				}
			})
		}
	}
}

// TestReadViewWriteTraps pins the trap for a write through a read-only
// view on both engines: a first-touch ReadView of an Add is served its
// trace's zero block, and a write through that pointer fails the job that
// made it with core.ErrReadViewWritten — on the root's trace, and under
// forced steals on a stolen continuation's — instead of being lost.  The
// failed job's other writes are dropped, the session is quiescent, the
// next Run's ReadView reads the identity, and the next jobs' writes land.
// On a service, a well-behaved job submitted beside the failing one
// succeeds.
func TestReadViewWriteTraps(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		for _, forced := range []bool{false, true} {
			name := mech.String()
			if forced {
				name += "/forced-steals"
			}
			t.Run(name, func(t *testing.T) {
				s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(2))
				defer s.Close()
				sum := cilkm.NewAdd[int64](s.Engine())
				other := cilkm.NewAdd[int64](s.Engine())
				var err error
				func() {
					if forced {
						plan := everyForkForced()
						defer faultinject.Activate(plan)()
						defer func() {
							if plan.Fires(faultinject.SchedForceSteal) == 0 {
								t.Error("no fork was forced")
							}
						}()
					}
					err = s.RunErr(func(c *cilkm.Context) {
						c.Fork(func(c *cilkm.Context) { other.Add(c, 1) }, func(c *cilkm.Context) {
							*sum.ReadView(c) += 5
						})
					})
				}()
				if !errors.Is(err, core.ErrReadViewWritten) {
					t.Fatalf("RunErr = %v, want %v", err, core.ErrReadViewWritten)
				}
				if err := s.Quiescent(); err != nil {
					t.Fatalf("not quiescent after the trap: %v", err)
				}
				if sum.Value() != 0 || other.Value() != 0 {
					t.Fatalf("failed job left sum %d, other %d, want nothing merged", sum.Value(), other.Value())
				}
				if err := s.Run(func(c *cilkm.Context) {
					if got := *sum.ReadView(c); got != 0 {
						t.Errorf("next Run's ReadView = %d, want 0", got)
					}
					c.ParallelFor(0, 100, func(c *cilkm.Context, i int) { sum.Add(c, 1) })
				}); err != nil {
					t.Fatalf("next Run: %v", err)
				}
				if got := sum.Value(); got != 100 {
					t.Fatalf("sum = %d after the next Run, want 100", got)
				}
			})
		}
		t.Run(mech.String()+"/service", func(t *testing.T) {
			svc := cilkm.NewService(cilkm.WithMechanism(mech), cilkm.WithWorkers(2))
			bad, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
				*cilkm.NewAdd[int64](js).ReadView(c) = 3
			})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			var sum *reducers.Add[int64]
			good, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
				sum = cilkm.NewAdd[int64](js)
				_ = *sum.ReadView(c)
				c.ParallelFor(0, 100, func(c *cilkm.Context, i int) { sum.Add(c, 1) })
			})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			within(t, containDeadline, "Wait", func() {
				if err := bad.Wait(); !errors.Is(err, core.ErrReadViewWritten) {
					t.Errorf("failing job: Wait = %v, want %v", err, core.ErrReadViewWritten)
				}
				if err := good.Wait(); err != nil {
					t.Errorf("job beside it: Wait = %v", err)
				}
			})
			if sum != nil && sum.Value() != 100 {
				t.Errorf("job beside it: sum = %d, want 100", sum.Value())
			}
			within(t, containDeadline, "Close", func() {
				if err := svc.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
			if err := svc.Runtime().Quiescent(); err != nil {
				t.Errorf("not quiescent after Close: %v", err)
			}
		})
	}
}

// TestReadViewWriteIsMerged pins that a write through a ReadView result is
// merged like a write through View when the view is the trace's own: an
// And, a List and a MapOf are not served the zero block, so their first
// ReadView creates a view.  One branch only reads each reducer and the
// other writes through ReadView; the values must equal the serial run's
// (nil context, which writes the leftmost views), on both engines, on one
// worker and on two with every fork's continuation run as a stolen task.
func TestReadViewWriteIsMerged(t *testing.T) {
	// result prints the list and the map (fmt sorts map keys), so two
	// results compare with ==.
	type result struct {
		and     bool
		list, m string
	}
	// run builds the reducers on s's engine, hands the two branches to
	// exec and reads the values.
	run := func(s *cilkm.Session, exec func(left, right func(*cilkm.Context))) result {
		and := cilkm.NewAnd(s.Engine())
		list := cilkm.NewList[int](s.Engine())
		m := cilkm.NewMapOf[string, int](s.Engine(), func(a, b int) int { return a + b })
		defer and.Close()
		defer list.Close()
		defer m.Close()
		exec(func(c *cilkm.Context) {
			_ = *and.ReadView(c)
			_ = len(*list.ReadView(c))
			_ = len(*m.ReadView(c))
		}, func(c *cilkm.Context) {
			*and.ReadView(c) = false
			l := list.ReadView(c)
			*l = append(*l, 7)
			(*m.ReadView(c))["k"] = 7
		})
		return result{and.Value(), fmt.Sprint(list.Value()), fmt.Sprint(m.Value())}
	}
	serial := func() result {
		s := cilkm.New(cilkm.WithWorkers(1))
		defer s.Close()
		return run(s, func(left, right func(*cilkm.Context)) { left(nil); right(nil) })
	}()
	if want := (result{false, "[7]", "map[k:7]"}); serial != want {
		t.Fatalf("serial run = %+v, want And false, List [7], map[k:7]", serial)
	}
	for _, mech := range cilkm.Mechanisms() {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%v/W=%d", mech, workers)
			if workers == 2 {
				name += "/forced-steals"
			}
			t.Run(name, func(t *testing.T) {
				s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(workers))
				defer s.Close()
				if workers == 2 {
					plan := everyForkForced()
					defer faultinject.Activate(plan)()
					defer func() {
						if plan.Fires(faultinject.SchedForceSteal) == 0 {
							t.Error("no fork was forced")
						}
					}()
				}
				got := run(s, func(left, right func(*cilkm.Context)) {
					if err := s.Run(func(c *cilkm.Context) { c.Fork(left, right) }); err != nil {
						t.Fatalf("Run: %v", err)
					}
				})
				if got != serial {
					t.Errorf("result = %+v, want the serial %+v", got, serial)
				}
				if err := s.Quiescent(); err != nil {
					t.Errorf("not quiescent: %v", err)
				}
			})
		}
	}
}
