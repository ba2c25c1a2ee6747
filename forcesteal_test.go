package cilkm_test

import (
	"slices"
	"testing"

	cilkm "repro"
	"repro/internal/faultinject"
)

// everyForkForced is the plan under which every fork's continuation runs as
// a stolen task.
func everyForkForced() *faultinject.Plan {
	return faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 1})
}

// TestUnderForcedSteals reruns the suites that pin reducer semantics with
// the forced-steal failpoint armed (faultinject.SchedForceSteal, Cilk's
// force_reduce): a fork that fires runs its continuation as a stolen task on
// the forking worker, so view creation, transferal and the hypermerge happen
// at that fork whatever the host's CPUs and the wake gate let real thieves
// do.  Tests that arm no failpoint of their own run with every fork forced;
// the ones that do get forced steals on half the forks beside their fault.
func TestUnderForcedSteals(t *testing.T) {
	t.Run("every-fork", func(t *testing.T) {
		plan := everyForkForced()
		defer faultinject.Activate(plan)()
		t.Run("PropertyMechanismsMatchSerialOnRandomTrees", TestPropertyMechanismsMatchSerialOnRandomTrees)
		t.Run("MechanismsAgreeOnAggregates", TestMechanismsAgreeOnAggregates)
		t.Run("ReadOnlyAccessesPreserveEquivalence", TestReadOnlyAccessesPreserveEquivalence)
		t.Run("FastPathInvalidationOnMidRunUnregister", TestFastPathInvalidationOnMidRunUnregister)
		t.Run("RetiredHandleNeverReachesSuccessor", TestRetiredHandleNeverReachesSuccessor)
		t.Run("FastPathInvalidationOnHypermerge", TestFastPathInvalidationOnHypermerge)
		t.Run("RunContextCancelSettles", TestRunContextCancelSettles)
		t.Run("ConcurrentRunCallersMatchSerial", TestConcurrentRunCallersMatchSerial)
		if plan.Fires(faultinject.SchedForceSteal) == 0 {
			t.Error("no fork was forced")
		}
	})
	t.Run("beside-faults", func(t *testing.T) {
		alsoForceSteals = true
		defer func() { alsoForceSteals = false }()
		t.Run("ChaosSweep", TestChaosSweep)
		t.Run("ChaosServiceSweep", TestChaosServiceSweep)
		t.Run("ReducePanicConservesResources", TestReducePanicConservesResources)
	})
}

// TestForcedStealsReadYourWrites pins read-your-writes across the zero
// block with every fork's continuation run as stolen, on both engines.  In
// the left strand of each fork a View is followed by a ReadView, which must
// return that view.  The right strand is a fresh trace: its first ReadView
// of the Add comes before any write there and reads the identity (the
// trace's zero block), and a ReadView after its write reads the write.  A
// ParallelFor around the forks stacks traces that have and have not
// written, and the final values equal the serial oracle's.
func TestForcedStealsReadYourWrites(t *testing.T) {
	const n = 200
	plan := everyForkForced()
	defer faultinject.Activate(plan)()
	for _, mech := range cilkm.Mechanisms() {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(2))
		sum := cilkm.NewAdd[int64](s.Engine())
		seen := cilkm.NewOr(s.Engine())
		order := cilkm.NewList[int](s.Engine())
		if err := s.Run(func(c *cilkm.Context) {
			c.ParallelForGrain(0, n, 1, func(c *cilkm.Context, i int) {
				c.Fork(func(c *cilkm.Context) {
					v := sum.View(c)
					*v += int64(i)
					if r := sum.ReadView(c); r != v {
						t.Errorf("%v: ReadView after View = %p, want the view %p", mech, r, v)
					}
					order.PushBack(c, 2*i)
				}, func(c *cilkm.Context) {
					if got := *sum.ReadView(c); got != 0 {
						t.Errorf("%v: a stolen strand's first ReadView = %d, want 0", mech, got)
					}
					if *seen.ReadView(c) {
						t.Errorf("%v: a stolen strand's first Or ReadView = true, want false", mech)
					}
					sum.Add(c, 1)
					if got := *sum.ReadView(c); got != 1 {
						t.Errorf("%v: ReadView after the strand's write = %d, want 1", mech, got)
					}
					if i%7 == 0 {
						seen.Update(c, true)
					}
					order.PushBack(c, 2*i+1)
				})
			})
		}); err != nil {
			t.Fatalf("%v: Run: %v", mech, err)
		}
		var wantSum int64
		var wantOrder []int
		for i := 0; i < n; i++ {
			wantSum += int64(i) + 1
			wantOrder = append(wantOrder, 2*i, 2*i+1)
		}
		if got := sum.Value(); got != wantSum {
			t.Errorf("%v: sum = %d, want %d", mech, got, wantSum)
		}
		if !seen.Value() {
			t.Errorf("%v: Or = false, want true", mech)
		}
		if got := order.Value(); !slices.Equal(got, wantOrder) {
			t.Errorf("%v: list order differs from the serial order (len %d, want %d)", mech, len(got), len(wantOrder))
		}
		if err := s.Quiescent(); err != nil {
			t.Errorf("%v: %v", mech, err)
		}
		s.Close()
	}
	if plan.Fires(faultinject.SchedForceSteal) == 0 {
		t.Error("no fork was forced")
	}
}

// TestNestedTraceReusesMapSets pins that a nested trace builds no store of
// its own, on either engine.  At W = 1 with every fork forced, a
// ParallelFor's stolen continuations run as traces nested up to four deep
// on the one worker.  Each trace's emptied store — the memory-mapped
// engine's map set, the hypermap's table — goes on the worker's spares
// stack and the next trace at that depth reuses it, with its pages or
// buckets; with a single spare, every deeper set and its first 4 KiB page
// would fall to the collector (72 objects a Run on the memory-mapped
// engine).  Both engines run the one skeleton around their store, so they
// allocate alike.
func TestNestedTraceReusesMapSets(t *testing.T) {
	limit := map[cilkm.Mechanism]float64{cilkm.MemoryMapped: 48, cilkm.Hypermap: 48}
	plan := everyForkForced()
	defer faultinject.Activate(plan)()
	for _, mech := range cilkm.Mechanisms() {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(1))
		sum := cilkm.NewAdd[int64](s.Engine())
		run := func() {
			if err := s.Run(func(c *cilkm.Context) {
				c.ParallelForGrain(0, 16, 1, func(c *cilkm.Context, i int) { sum.Add(c, int64(i)) })
			}); err != nil {
				t.Fatal(err)
			}
		}
		n := testing.AllocsPerRun(100, run)
		if got, want := sum.Value(), int64(101*120); got != want {
			t.Errorf("%v: sum = %d after 101 Runs, want %d", mech, got, want)
		}
		if n > limit[mech] {
			t.Errorf("%v: a Run of 16 forced steals allocates %.1f objects, want at most %v", mech, n, limit[mech])
		}
		sum.Close()
		s.Close()
	}
	if plan.Fires(faultinject.SchedForceSteal) == 0 {
		t.Error("no fork was forced")
	}
}
