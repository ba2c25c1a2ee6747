package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// View transferal hands the trace's own SPA pages over as the deposit, so a
// deposit page carries the log it grew as a private page.  These tests pin
// what that asks of every deposit walk (spa.Map.Range: take the slot out
// the moment its view is consumed) and of the pool accounting.

// boomMonoid is the arena-class int64 sum with a Reduce that panics while
// armed.
func boomMonoid(armed *bool) core.Monoid {
	return core.NewMonoid(reducers.TypedFuncMonoid[int64]{
		IdentityFn: func() *int64 { return new(int64) },
		ReduceFn: func(l, r *int64) *int64 {
			if *armed {
				panic("boomMonoid: armed Reduce")
			}
			*l += *r
			return l
		}})
}

// repeatedIndexDeposit runs a nested trace on c's worker that writes keep
// and then drives one slot through insert → remove → insert: r1 is written
// and unregistered, r2 takes its address, and r2's first lookup drops r1's
// stale view and installs its own at the same index.  The handed-off page
// therefore logs keep's index once, ahead of the recycled index twice.
func repeatedIndexDeposit(t *testing.T, eng *core.MM, c *sched.Context, keep *core.Reducer) (sched.Deposit, *core.Reducer) {
	w := c.Worker()
	tr := eng.BeginTrace(w)
	*core.Lookup(eng, c, keep).(*int64) += 10
	r1, _ := eng.Register(arenaSumMonoid)
	*core.Lookup(eng, c, r1).(*int64) += 1
	eng.Unregister(r1)
	r2, _ := eng.Register(arenaSumMonoid)
	if r2.Addr() != r1.Addr() {
		t.Errorf("address not recycled (%d, then %d)", r1.Addr(), r2.Addr())
	}
	*core.Lookup(eng, c, r2).(*int64) += 2
	return eng.EndTrace(w, tr), r2
}

// TestHandoffRepeatedLogIndex ends a deposit whose page logs one index
// twice in each of the ways a deposit can end.  A walk that frees a view
// and leaves its slot in place frees the twice-logged view twice, which
// shows as a negative arena balance in Quiescent.
func TestHandoffRepeatedLogIndex(t *testing.T) {
	type outcome struct{ keep, r2 int64 }
	for _, tc := range []struct {
		name string
		// inJob ends the deposit on the worker; afterJob on the caller's
		// goroutine once Run has returned.  Exactly one is set.
		inJob    func(eng *core.MM, c *sched.Context, d sched.Deposit)
		afterJob func(eng *core.MM, d sched.Deposit)
		arm      bool // keep's Reduce panics
		jobFails bool
		want     *outcome // nil: keep's lock died with the panic, read nothing
	}{
		{name: "discard on a worker",
			inJob: func(eng *core.MM, c *sched.Context, d sched.Deposit) { eng.Discard(c.Worker(), d) },
			want:  &outcome{keep: 100}},
		{name: "merge",
			inJob: func(eng *core.MM, c *sched.Context, d sched.Deposit) {
				eng.Merge(c.Worker(), c.Worker().CurrentTrace(), d)
			},
			want: &outcome{keep: 110, r2: 2}},
		{name: "root merge",
			afterJob: func(eng *core.MM, d sched.Deposit) { eng.MergeRootDeposit(d) },
			want:     &outcome{keep: 110, r2: 2}},
		{name: "reduce panic in merge", arm: true, jobFails: true,
			inJob: func(eng *core.MM, c *sched.Context, d sched.Deposit) {
				eng.Merge(c.Worker(), c.Worker().CurrentTrace(), d)
			},
			want: &outcome{}},
		{name: "reduce panic in root merge", arm: true,
			afterJob: func(eng *core.MM, d sched.Deposit) {
				defer func() {
					if recover() == nil {
						t.Error("armed root merge did not panic")
					}
				}()
				eng.MergeRootDeposit(d)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := core.NewMM(core.MMConfig{Workers: 1})
			s := core.NewSession(1, eng)
			defer s.Close()
			armed := false
			keep, _ := eng.Register(boomMonoid(&armed))
			var dep sched.Deposit
			var r2 *core.Reducer
			err := s.RunErr(func(c *sched.Context) {
				if tc.inJob != nil || !tc.arm {
					// The root trace's own view of keep: the current side
					// of the merge, and a root deposit for Run to absorb.
					*core.Lookup(eng, c, keep).(*int64) += 100
				}
				dep, r2 = repeatedIndexDeposit(t, eng, c, keep)
				armed = tc.arm
				if tc.inJob != nil {
					tc.inJob(eng, c, dep)
				}
			})
			if (err != nil) != tc.jobFails {
				t.Fatalf("RunErr = %v, want failure %v", err, tc.jobFails)
			}
			if tc.afterJob != nil {
				tc.afterJob(eng, dep)
			}
			if err := eng.Quiescent(); err != nil {
				t.Fatalf("not quiescent: %v", err)
			}
			if out := eng.PoolStats().Outstanding(); out != 0 {
				t.Fatalf("%d pagepool pages outstanding", out)
			}
			if tc.want != nil {
				if got := (outcome{*keep.Value().(*int64), *r2.Value().(*int64)}); got != *tc.want {
					t.Fatalf("keep, r2 = %+v, want %+v", got, *tc.want)
				}
			}
		})
	}
}

// TestHandoffNestedTracesConservePool nests three traces on one worker, as
// a worker helping three steals deep at a stalled join does, each spanning
// two SPA pages.  Every EndTrace swaps pool pages into a private set, and
// the emptied sets, holding pool-born pages, go on the worker's spares
// stack for the next run's traces: the pool counts gets and puts, not
// provenance, so Outstanding must still come back to zero.  The modelled
// address space maps pages by index, not by page object, and must not
// notice the swaps.
func TestHandoffNestedTracesConservePool(t *testing.T) {
	for name, model := range map[string]bool{"plain": false, "modelled address space": true} {
		t.Run(name, func(t *testing.T) {
			eng := core.NewMM(core.MMConfig{Workers: 1, ModelAddressSpace: model})
			s := core.NewSession(1, eng)
			defer s.Close()
			rs := make([]*core.Reducer, 300)
			for i := range rs {
				rs[i], _ = eng.Register(arenaSumMonoid)
			}
			const runs = 3
			for run := 0; run < runs; run++ {
				if err := s.Run(func(c *sched.Context) {
					w := c.Worker()
					var nest func(depth int64)
					nest = func(depth int64) {
						tr := eng.BeginTrace(w)
						for i, r := range rs {
							if (int64(i)+depth)%2 == 0 {
								*core.Lookup(eng, c, r).(*int64) += depth
							}
						}
						if depth < 3 {
							nest(depth + 1)
						}
						eng.Merge(w, w.CurrentTrace(), eng.EndTrace(w, tr))
					}
					nest(1)
				}); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if out := eng.PoolStats().Outstanding(); out != 0 {
					t.Fatalf("run %d: %d pagepool pages outstanding", run, out)
				}
				if err := eng.Quiescent(); err != nil {
					t.Fatalf("run %d: not quiescent: %v", run, err)
				}
			}
			if ps := eng.PoolStats(); ps.RejectedDirty != 0 {
				t.Fatalf("non-empty pages were returned to the pool: %+v", ps)
			}
			for i, r := range rs {
				want := int64(runs * 2) // depth 2
				if i%2 == 1 {
					want = runs * (1 + 3)
				}
				if got := *r.Value().(*int64); got != want {
					t.Fatalf("reducer %d = %d, want %d", i, got, want)
				}
			}
		})
	}
}
