package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// engines returns one of each reducer engine for cross-mechanism tests.
func engines(workers int) map[string]core.Engine {
	return map[string]core.Engine{
		"mm":       core.NewMM(core.MMConfig{Workers: workers}),
		"hypermap": hypermap.New(hypermap.Config{Workers: workers}),
	}
}

// TestUnregisterSlotRecyclingBothEngines covers the full recycle cycle on
// both engines: register → unregister → register reuses the slot, and the
// unregistered reducer's final value stays readable.  The directory's free
// list is LIFO, so the recycled address is handed to the very next
// registration.
func TestUnregisterSlotRecyclingBothEngines(t *testing.T) {
	for name, eng := range engines(2) {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(2, eng)
			defer s.Close()
			r1, err := eng.Register(sumMonoid)
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
			if err := s.Run(func(c *sched.Context) {
				c.ParallelForGrain(0, 100, 1, func(c *sched.Context, i int) {
					core.Lookup(eng, c, r1).(*sumView).v++
				})
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			addr := r1.Addr()
			eng.Unregister(r1)
			if !r1.Retired() {
				t.Fatal("reducer not marked retired")
			}
			// The final value must survive unregistration.
			if got := r1.Value().(*sumView).v; got != 100 {
				t.Fatalf("final value after Unregister = %d, want 100", got)
			}
			if got := core.Lookup(eng, nil, r1).(*sumView).v; got != 100 {
				t.Fatalf("nil-context Lookup after Unregister = %d, want 100", got)
			}
			// A new registration must reuse the recycled slot without
			// inheriting any state from the retired reducer.
			r2, err := eng.Register(sumMonoid)
			if err != nil {
				t.Fatalf("re-Register: %v", err)
			}
			if r2.Addr() != addr {
				t.Fatalf("slot not recycled: got %d, want %d", r2.Addr(), addr)
			}
			if got := r2.Value().(*sumView).v; got != 0 {
				t.Fatalf("recycled slot leaked a value: %d", got)
			}
			if err := s.Run(func(c *sched.Context) {
				core.Lookup(eng, c, r2).(*sumView).v += 7
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := r2.Value().(*sumView).v; got != 7 {
				t.Fatalf("recycled reducer value = %d, want 7", got)
			}
		})
	}
}

// TestLookupNilContextBothEngines checks that a nil context (serial code
// outside the scheduler) reads the leftmost view on both engines.
func TestLookupNilContextBothEngines(t *testing.T) {
	for name, eng := range engines(1) {
		t.Run(name, func(t *testing.T) {
			r, err := eng.Register(sumMonoid)
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
			if got := core.Lookup(eng, nil, r).(*sumView).v; got != 0 {
				t.Fatalf("nil-context identity lookup = %d, want 0", got)
			}
			r.SetValue(&sumView{v: 9})
			if got := core.Lookup(eng, nil, r).(*sumView).v; got != 9 {
				t.Fatalf("nil-context lookup = %d, want 9", got)
			}
			// Repeated nil-context lookups must not be confused by any
			// cached state from a previous parallel region.
			s := core.NewSession(1, eng)
			if err := s.Run(func(c *sched.Context) {
				core.Lookup(eng, c, r).(*sumView).v++
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			s.Close()
			if got := core.Lookup(eng, nil, r).(*sumView).v; got != 10 {
				t.Fatalf("nil-context lookup after run = %d, want 10", got)
			}
		})
	}
}

// TestMergePreservesSerialOrder drives lanes of a noncommutative monoid
// through a steal-heavy computation and checks that every lane's final
// string equals the serial left-to-right concatenation: each hypermerge
// must reduce current ⊗ deposited with the serially-earlier view on the
// left.
func TestMergePreservesSerialOrder(t *testing.T) {
	const lanes = 16
	const steps = 26
	workers := 4
	eng := core.NewMM(core.MMConfig{Workers: workers})
	s := core.NewSession(workers, eng)
	defer s.Close()
	rs := make([]*core.Reducer, lanes)
	for i := range rs {
		r, err := eng.Register(catMonoid)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		rs[i] = r
	}
	err := s.Run(func(c *sched.Context) {
		c.ParallelForGrain(0, lanes*steps, 1, func(c *sched.Context, i int) {
			time.Sleep(20 * time.Microsecond) // widen the steal window
			lane := i % lanes
			step := i / lanes
			core.Lookup(eng, c, rs[lane]).(*catView).s += string(rune('a' + step))
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := ""
	for step := 0; step < steps; step++ {
		want += string(rune('a' + step))
	}
	for lane, r := range rs {
		if got := r.Value().(*catView).s; got != want {
			t.Fatalf("lane %d reduced out of order: got %q, want %q", lane, got, want)
		}
	}
	if s.Runtime().Stats().Steals == 0 {
		t.Skip("no steals occurred; serial-order check vacuous this run")
	}
}

// TestMergePipelineCounters drives controlled trace cycles and checks the
// hypermerge's accounting: every slot is merged, and bulk page movement
// keeps pagepool round-trips strictly below the number of slots merged.
func TestMergePipelineCounters(t *testing.T) {
	const n = 300 // spans two SPA pages
	const reps = 10
	workers := 4
	eng := core.NewMM(core.MMConfig{Workers: workers})
	s := core.NewSession(workers, eng)
	defer s.Close()
	rs := make([]*core.Reducer, n)
	for i := range rs {
		rs[i], _ = eng.Register(sumMonoid)
	}
	err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		for rep := 0; rep < reps; rep++ {
			tr := eng.BeginTrace(w)
			for _, r := range rs {
				core.Lookup(eng, c, r).(*sumView).v++
			}
			d := eng.EndTrace(w, tr)
			eng.Merge(w, w.CurrentTrace(), d)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Run(func(c *sched.Context) {}); err != nil {
		t.Fatalf("flush run: %v", err)
	}
	for i, r := range rs {
		if got := r.Value().(*sumView).v; got != reps {
			t.Fatalf("reducer %d = %d, want %d", i, got, reps)
		}
	}
	ms := eng.MergeStats()
	if ms.Merges < reps {
		t.Fatalf("Merges = %d, want >= %d", ms.Merges, reps)
	}
	if ms.SlotsMerged < int64(n*reps) {
		t.Fatalf("SlotsMerged = %d, want >= %d", ms.SlotsMerged, n*reps)
	}
	// First cycle adopts, the rest reduce full width.
	if ms.Adopts < n || ms.Reduces < int64(n*(reps-1)) {
		t.Fatalf("adopts=%d reduces=%d, want >= %d / %d", ms.Adopts, ms.Reduces, n, n*(reps-1))
	}
	if ms.BulkPageFetches < reps || ms.BulkPageReturns < reps {
		t.Fatalf("bulk page movement missing: fetches=%d returns=%d", ms.BulkPageFetches, ms.BulkPageReturns)
	}
	pool := eng.PoolStats()
	if got := pool.RoundTrips(); got >= ms.SlotsMerged {
		t.Fatalf("%d pagepool round-trips for %d merged slots — bulk page movement not engaged", got, ms.SlotsMerged)
	}
	if pool.RejectedDirty != 0 {
		t.Fatalf("dirty pages recycled: %+v", pool)
	}
}

// TestLookupCacheCountsHits checks the lookup outcome counters on both
// engines: every boxed lookup is one engine visit, everything after the
// first lookup of the trace is answered by the precomputed index, and
// ResetOverheads zeroes the counters.
func TestLookupCacheCountsHits(t *testing.T) {
	type fastPath interface {
		FastPathStats() metrics.LookupFastPathStats
	}
	for name, eng := range engines(1) {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(1, eng)
			defer s.Close()
			r, _ := eng.Register(sumMonoid)
			const iters = 1000
			if err := s.Run(func(c *sched.Context) {
				for i := 0; i < iters; i++ {
					core.Lookup(eng, c, r).(*sumView).v++
				}
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := r.Value().(*sumView).v; got != iters {
				t.Fatalf("sum = %d, want %d", got, iters)
			}
			if got := core.LookupCount(eng); got != iters {
				t.Fatalf("LookupCount = %d, want %d", got, iters)
			}
			fp := eng.(fastPath).FastPathStats()
			if fp.Hits != iters-1 || fp.Misses != 1 || fp.ColdMisses != 1 {
				t.Fatalf("outcomes = %+v, want %d hits and one cold miss", fp, iters-1)
			}
			eng.ResetOverheads()
			if got := core.LookupCount(eng); got != 0 {
				t.Fatalf("LookupCount after ResetOverheads = %d, want 0", got)
			}
		})
	}
}
