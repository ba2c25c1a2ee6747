package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestMergeLocalitySortCounterAndCorrectness drives one hypermerge carrying
// enough reduce pairs to cross the locality-sort threshold (512) and checks
// both effects: the pipeline counts the sort, and reordering the reduce
// partition changes nothing semantically — every reducer still folds
// current ⊗ deposited exactly once.
func TestMergeLocalitySortCounterAndCorrectness(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 2})
	s := core.NewSession(2, eng)
	defer s.Close()

	const n = 600
	rs := make([]*core.Reducer, n)
	for i := range rs {
		r, err := eng.Register(sumMonoid{})
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		rs[i] = r
	}
	if err := s.Run(func(c *sched.Context) {
		// The root trace writes every reducer so the spawned child's
		// deposit meets a non-empty current slot: n matched reduce pairs,
		// zero adopts.
		for _, r := range rs {
			core.Lookup(eng, c, r).(*sumView).v += 1
		}
		g := c.NewGroup()
		g.Spawn(func(c *sched.Context) {
			for _, r := range rs {
				core.Lookup(eng, c, r).(*sumView).v += 2
			}
		})
		g.Wait()
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}

	stats := eng.MergeStats()
	if stats.LocalitySorts == 0 {
		t.Fatalf("no locality sort recorded across %d-pair merge: %+v",
			n, stats)
	}
	if stats.Reduces < n {
		t.Fatalf("Reduces = %d, want >= %d (matched pairs must reduce)",
			stats.Reduces, n)
	}
	for i, r := range rs {
		if got := r.Value().(*sumView).v; got != 3 {
			t.Fatalf("reducer %d = %d, want 3", i, got)
		}
	}
}
