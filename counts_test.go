package cilkm_test

import (
	"maps"
	"slices"
	"testing"

	cilkm "repro"
	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// TestEnginesCountAlike pins that the two engines differ in their lookup
// structure and nothing else: everything around it — view creation, arena
// placement, transferal through the page pool, the merge decisions and the
// root merge — is the one skeleton both embed, so one program run at W = 1
// counts the same on both, plainly and with every fork's continuation run
// as stolen.  The program writes an Add (an arena view), an And (an arena
// view whose identity is not zero), a List and a MapOf (heap views), and
// reads a second And through ReadView, which creates a view of the trace's
// own.  Lookup outcomes are left out: the hypermap's hit probes only the
// head of a bucket chain, so a below-head entry it finds on the miss path
// counts as a miss where the memory-mapped engine counts a hit.
func TestEnginesCountAlike(t *testing.T) {
	type stats interface {
		ArenaStats() metrics.ArenaStats
		MergeStats() metrics.MergePipelineStats
	}
	type counts struct {
		merges, slots, reduces, adopts, stale, fetches, returns int64
		allocs, frees, heap, created                            int64
	}
	type results struct {
		sum  int64
		and  bool
		list []int
		m    map[int]int
	}
	const n = 64
	// run runs the program on a fresh W = 1 session of mech: serially with
	// nil contexts, or in a Run, with every fork forced when forced.
	run := func(t *testing.T, mech cilkm.Mechanism, serial, forced bool) (counts, results) {
		t.Helper()
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(1))
		defer s.Close()
		eng := s.Engine()
		add, and, read := cilkm.NewAdd[int64](eng), cilkm.NewAnd(eng), cilkm.NewAnd(eng)
		list, m := cilkm.NewList[int](eng), cilkm.NewMapOf[int, int](eng, func(a, b int) int { return a + b })
		leaf := func(c *cilkm.Context, i int) {
			add.Add(c, int64(i))
			and.Update(c, i%7 != 3)
			list.PushBack(c, i)
			m.Update(c, i%5, i)
			if !*read.ReadView(c) {
				t.Errorf("%v: ReadView of an untouched And read false", mech)
			}
		}
		if serial {
			for i := range n {
				leaf(nil, i)
			}
		} else {
			if forced {
				plan := everyForkForced()
				defer faultinject.Activate(plan)()
				defer func() {
					if plan.Fires(faultinject.SchedForceSteal) == 0 {
						t.Errorf("%v: no fork was forced", mech)
					}
				}()
			}
			if err := s.Run(func(c *cilkm.Context) { c.ParallelForGrain(0, n, 1, leaf) }); err != nil {
				t.Fatalf("%v: Run: %v", mech, err)
			}
			if err := s.Quiescent(); err != nil {
				t.Errorf("%v: %v", mech, err)
			}
		}
		ms, ar := eng.(stats).MergeStats(), eng.(stats).ArenaStats()
		return counts{ms.Merges, ms.SlotsMerged, ms.Reduces, ms.Adopts, ms.StaleViewDrops,
				ms.BulkPageFetches, ms.BulkPageReturns, ar.Allocs, ar.Frees, ar.HeapViews,
				eng.Overheads().Count(metrics.ViewCreation)},
			results{add.Value(), and.Value(), list.Value(), m.Value()}
	}
	_, serial := run(t, cilkm.MemoryMapped, true, false)
	for _, forced := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "forced"}[forced], func(t *testing.T) {
			var want counts
			for i, mech := range cilkm.Mechanisms() {
				got, res := run(t, mech, false, forced)
				if res.sum != serial.sum || res.and != serial.and || !slices.Equal(res.list, serial.list) || !maps.Equal(res.m, serial.m) {
					t.Errorf("%v: results %+v, the serial run's %+v", mech, res, serial)
				}
				if got.created == 0 || got.fetches == 0 || got.allocs == 0 {
					t.Errorf("%v: counts %+v: no view created, deposited or carved", mech, got)
				}
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("%v counts %+v, %v counts %+v", mech, got, cilkm.Mechanisms()[0], want)
				}
			}
		})
	}
}
