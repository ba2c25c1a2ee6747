package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/reducers"
	"repro/internal/sched"
	"repro/internal/spa"
)

// arenaSumMonoid is a sum monoid whose view is a bare int64: fixed-size and
// pointer-free, so its views are arena-placed.
var arenaSumMonoid = core.NewMonoid(reducers.TypedFuncMonoid[int64]{
	IdentityFn: func() *int64 { return new(int64) },
	ReduceFn: func(l, r *int64) *int64 {
		*l += *r
		return l
	}})

// arenaAndMonoid is a logical-and monoid over a bare bool: arena-placed
// like arenaSumMonoid, but its identity (true) is not the zero value, so a
// read-only first lookup still creates a view, which is deposited and
// merged like a written one.  The read-only tests read through it;
// arenaSumMonoid's read-only lookups are served the trace's zero block and
// create nothing.
var arenaAndMonoid = core.NewMonoid(reducers.TypedFuncMonoid[bool]{
	IdentityFn: func() *bool { v := true; return &v },
	ReduceFn: func(l, r *bool) *bool {
		*l = *l && *r
		return l
	}})

// TestArenaClassFor pins the size-class mapping.
func TestArenaClassFor(t *testing.T) {
	cases := []struct {
		size uintptr
		want int
	}{
		{0, 0}, {1, 0}, {8, 0}, {9, 1}, {16, 1}, {17, 2}, {32, 2},
		{33, 3}, {64, 3}, {65, 4}, {128, 4}, {129, -1}, {4096, -1},
	}
	for _, tc := range cases {
		if got := core.ArenaClassFor(tc.size); got != tc.want {
			t.Fatalf("ArenaClassFor(%d) = %d, want %d", tc.size, got, tc.want)
		}
	}
}

// TestArenaViewsRecycleThroughMergeCycle drives repeated
// steal-shaped trace cycles (begin, first-lookup every reducer, transfer,
// hypermerge) and checks that after warm-up the identity views come from
// the arena free lists — the dying side of each reduce pair funds the next
// trace's view creation, so the cycle stops allocating.
func TestArenaViewsRecycleThroughMergeCycle(t *testing.T) {
	const nred = 64
	const reps = 20
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, nred)
	for i := range rs {
		r, err := eng.Register(arenaSumMonoid)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		if !r.ArenaEligible() {
			t.Fatal("arenaSumMonoid not detected as arena-eligible")
		}
		rs[i] = r
	}
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		for rep := 0; rep < reps; rep++ {
			tr := eng.BeginTrace(w)
			for _, r := range rs {
				*core.Lookup(eng, c, r).(*int64)++
			}
			d := eng.EndTrace(w, tr)
			eng.Merge(w, w.CurrentTrace(), d)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Run(func(c *sched.Context) {}); err != nil {
		t.Fatalf("flush run: %v", err)
	}
	for i, r := range rs {
		if got := *r.Value().(*int64); got != reps {
			t.Fatalf("reducer %d = %d, want %d", i, got, reps)
		}
	}
	st := eng.ArenaStats()
	if st.Allocs == 0 {
		t.Fatal("no arena allocations recorded for an arena-eligible monoid")
	}
	if st.HeapViews != 0 {
		t.Fatalf("HeapViews = %d, want 0 (every identity view should be arena-placed)", st.HeapViews)
	}
	// Each merge kills nred deposited views, which must fund the next
	// trace's nred creations: all but the first couple of cycles hit the
	// free list.
	if st.FreeHits < int64(nred*(reps-2)) {
		t.Fatalf("FreeHits = %d, want >= %d (views not recycling)", st.FreeHits, nred*(reps-2))
	}
	if st.Frees < st.FreeHits {
		t.Fatalf("Frees = %d < FreeHits = %d: free list served more than was freed", st.Frees, st.FreeHits)
	}
	// The whole run should bump-allocate only a handful of chunks.
	if st.ChunkAllocs > 4 {
		t.Fatalf("ChunkAllocs = %d, want <= 4 (bump chunks churning)", st.ChunkAllocs)
	}
}

// TestHeapMonoidBypassesArena checks the heap fallback accounting for
// monoids that are not arena-eligible.
func TestHeapMonoidBypassesArena(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	r, _ := eng.Register(sumMonoid) // *sumView holds a pointer: heap path
	if r.ArenaEligible() {
		t.Fatal("pointer-holding view misdetected as arena-eligible")
	}
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		tr := eng.BeginTrace(w)
		core.Lookup(eng, c, r).(*sumView).v++
		d := eng.EndTrace(w, tr)
		eng.Merge(w, w.CurrentTrace(), d)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := eng.ArenaStats()
	if st.HeapViews == 0 {
		t.Fatal("heap-path view creation not accounted")
	}
	if st.Allocs != 0 {
		t.Fatalf("Allocs = %d, want 0 for a heap-only monoid", st.Allocs)
	}
}

// TestIdentityElisionAtEndTrace checks that transferal elides nothing: a
// trace that only ever resolves views read-only (LookupWord with
// mutable=false, of a view type the zero block does not serve) deposits
// every view it created in one pagepool round-trip, the hypermerge adopts
// them all, the values stay the identity, and every page and arena block
// is accounted for afterwards.
func TestIdentityElisionAtEndTrace(t *testing.T) {
	const nred = 32
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, nred)
	for i := range rs {
		rs[i], _ = eng.Register(arenaAndMonoid)
	}
	baseTrips := eng.PoolStats().RoundTrips()
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		tr := eng.BeginTrace(w)
		for _, r := range rs {
			word, _ := eng.LookupWord(c, r, 0, false)
			if got := *(*bool)(word); !got {
				t.Errorf("read-only first lookup = %v, want identity true", got)
			}
		}
		d := eng.EndTrace(w, tr)
		if d == nil {
			t.Error("all-read-only trace deposited nothing")
		}
		eng.Merge(w, w.CurrentTrace(), d)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ms := eng.MergeStats()
	if ms.IdentityElisions != 0 {
		t.Fatalf("IdentityElisions = %d, want 0", ms.IdentityElisions)
	}
	if ms.Reduces != 0 || ms.Adopts != nred {
		t.Fatalf("read-only views not merged: reduces=%d adopts=%d, want 0 and %d", ms.Reduces, ms.Adopts, nred)
	}
	// Two deposits, the nested trace's and then the root trace's holding
	// the adopted views: one bulk fetch and one bulk return each.
	if got := eng.PoolStats().RoundTrips(); got != baseTrips+4 {
		t.Fatalf("pagepool round-trips = %d, want %d", got, baseTrips+4)
	}
	if st := eng.ArenaStats(); st.Allocs != nred {
		t.Fatalf("arena Allocs = %d, want %d (one view per read-only reducer)", st.Allocs, nred)
	}
	if err := eng.Quiescent(); err != nil {
		t.Fatalf("not quiescent: %v", err)
	}
	for i, r := range rs {
		if got := *r.Value().(*bool); !got {
			t.Fatalf("reducer %d = %v, want true after read-only run", i, got)
		}
	}
}

// TestIdentityElisionMixedWrittenViews interleaves written and read-only
// views in one trace: both halves are transferred and merged alike, and the
// final values equal the writes (the read-only half stays the identity).
func TestIdentityElisionMixedWrittenViews(t *testing.T) {
	const nred = 40
	const reps = 5
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, nred)
	for i := range rs {
		if i%2 == 0 {
			rs[i], _ = eng.Register(arenaSumMonoid)
		} else {
			rs[i], _ = eng.Register(arenaAndMonoid)
		}
	}
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		for rep := 0; rep < reps; rep++ {
			tr := eng.BeginTrace(w)
			for i, r := range rs {
				if i%2 == 0 {
					*core.Lookup(eng, c, r).(*int64)++ // written
				} else {
					word, _ := eng.LookupWord(c, r, 0, false) // read-only
					_ = *(*bool)(word)
				}
			}
			d := eng.EndTrace(w, tr)
			eng.Merge(w, w.CurrentTrace(), d)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Run(func(c *sched.Context) {}); err != nil {
		t.Fatalf("flush run: %v", err)
	}
	for i, r := range rs {
		if i%2 == 1 {
			if got := *r.Value().(*bool); !got {
				t.Fatalf("reducer %d = %v, want true", i, got)
			}
			continue
		}
		if got := *r.Value().(*int64); got != reps {
			t.Fatalf("reducer %d = %d, want %d", i, got, reps)
		}
	}
	ms := eng.MergeStats()
	if ms.IdentityElisions != 0 {
		t.Fatalf("IdentityElisions = %d, want 0", ms.IdentityElisions)
	}
	if want := int64(nred * reps); ms.SlotsMerged != want {
		t.Fatalf("SlotsMerged = %d, want %d (read-only views merge too)", ms.SlotsMerged, want)
	}
	// The first cycle adopts every view into the root trace; each later one
	// reduces into it.
	if want := int64(nred * (reps - 1)); ms.Reduces != want {
		t.Fatalf("Reduces = %d, want %d", ms.Reduces, want)
	}
}

// TestWriteAfterReadOnlyLookupIsMerged checks a read-only first touch
// followed by a write in the same trace: the read is lent the zero block,
// the mutable lookup after it creates the trace's own view, and that view
// is deposited and merged with the write in it.
func TestWriteAfterReadOnlyLookupIsMerged(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	r, _ := eng.Register(arenaSumMonoid)
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		tr := eng.BeginTrace(w)
		word, _ := eng.LookupWord(c, r, 0, false) // read-only first touch
		_ = *(*int64)(word)
		*core.Lookup(eng, c, r).(*int64) += 7 // then a write
		d := eng.EndTrace(w, tr)
		if d == nil {
			t.Error("written view elided")
		}
		eng.Merge(w, w.CurrentTrace(), d)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Run(func(c *sched.Context) {}); err != nil {
		t.Fatalf("flush run: %v", err)
	}
	if got := *r.Value().(*int64); got != 7 {
		t.Fatalf("value = %d, want 7", got)
	}
	if ms := eng.MergeStats(); ms.IdentityElisions != 0 {
		t.Fatalf("IdentityElisions = %d, want 0", ms.IdentityElisions)
	}
}

// TestRootDepositElidesUnwrittenViews checks that MergeRootDeposit elides
// nothing: a view the root trace only reads is folded into the leftmost
// view like a written one, which leaves its value unchanged, and a write
// through a read-only view of the trace's own is folded too.
func TestRootDepositElidesUnwrittenViews(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	written, _ := eng.Register(arenaSumMonoid)
	readOnly, _ := eng.Register(arenaAndMonoid)
	readWritten, _ := eng.Register(arenaAndMonoid)
	if err := s.Run(func(c *sched.Context) {
		*core.Lookup(eng, c, written).(*int64) += 3
		word, _ := eng.LookupWord(c, readOnly, 0, false)
		_ = *(*bool)(word)
		word, _ = eng.LookupWord(c, readWritten, 0, false)
		*(*bool)(word) = false
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := *written.Value().(*int64); got != 3 {
		t.Fatalf("written reducer = %d, want 3", got)
	}
	if got := *readOnly.Value().(*bool); !got {
		t.Fatalf("read-only reducer = %v, want true", got)
	}
	if got := *readWritten.Value().(*bool); got {
		t.Fatalf("reducer written through a read-only view = %v, want false", got)
	}
	if ms := eng.MergeStats(); ms.IdentityElisions != 0 {
		t.Fatalf("IdentityElisions = %d, want 0", ms.IdentityElisions)
	}
	if err := eng.Quiescent(); err != nil {
		t.Fatalf("not quiescent: %v", err)
	}
}

// TestLogOverflowHypermergeBothEngines covers the SPA log-overflow path at
// the engine level: a single trace inserts more views into one SPA map page
// than the 120-entry log can describe, so transferal and the hypermerge
// must fall back to the full-array scan — and still fold every view, on
// both engines.  Addresses are handed out densely, so the first 248
// reducers share SPA page 0.
func TestLogOverflowHypermergeBothEngines(t *testing.T) {
	const nred = spa.LogCapacity + 80 // 200 > 120, all on page 0
	const reps = 3
	for name, eng := range map[string]core.Engine{
		"mm":       core.NewMM(core.MMConfig{Workers: 1}),
		"hypermap": hypermap.New(hypermap.Config{Workers: 1}),
	} {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(1, eng)
			defer s.Close()
			rs := make([]*core.Reducer, nred)
			for i := range rs {
				r, err := eng.Register(catMonoid)
				if err != nil {
					t.Fatalf("Register: %v", err)
				}
				if r.Addr().Page() != 0 {
					t.Fatalf("reducer %d landed on page %d, want 0 (need one overflowing map)", i, r.Addr().Page())
				}
				rs[i] = r
			}
			if err := s.Run(func(c *sched.Context) {
				w := c.Worker()
				for rep := 0; rep < reps; rep++ {
					tr := eng.BeginTrace(w)
					for i, r := range rs {
						core.Lookup(eng, c, r).(*catView).s += string(rune('a' + (rep+i)%26))
					}
					d := eng.EndTrace(w, tr)
					eng.Merge(w, w.CurrentTrace(), d)
				}
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := s.Run(func(c *sched.Context) {}); err != nil {
				t.Fatalf("flush run: %v", err)
			}
			for i, r := range rs {
				want := ""
				for rep := 0; rep < reps; rep++ {
					want += string(rune('a' + (rep+i)%26))
				}
				if got := r.Value().(*catView).s; got != want {
					t.Fatalf("reducer %d = %q, want %q (overflowed map merged wrong)", i, got, want)
				}
			}
			// The overflowed pages were handed off as deposits and came back
			// through the pool: nothing may be left in flight.
			if err := eng.Quiescent(); err != nil {
				t.Fatalf("not quiescent: %v", err)
			}
		})
	}
}

// TestEnsureMappedGrowthUnderRegistrationChurn exercises the one-step
// growth of the worker's mapped-page bitmap while registrations churn the
// directory: pages are touched out of order (recycled low addresses
// interleaved with fresh high ones) and each worker must map each touched
// page exactly once.  WorkerMappedPages pins the invariant: a page's bit
// is set on its first touch and never cleared, so a remap is impossible by
// construction and the count is exactly the number of pages touched.
func TestEnsureMappedGrowthUnderRegistrationChurn(t *testing.T) {
	const pages = 5
	eng := core.NewMM(core.MMConfig{Workers: 1, ModelAddressSpace: true})
	s := core.NewSession(1, eng)
	defer s.Close()

	// Fill several SPA pages with registrations, churning as we go: every
	// few registrations, unregister one of the earlier reducers and
	// re-register (the recycled low address will be touched after much
	// higher pages have already been mapped).
	var rs []*core.Reducer
	for i := 0; i < pages*spa.SlotsPerMap; i++ {
		r, err := eng.Register(arenaSumMonoid)
		if err != nil {
			t.Fatalf("Register #%d: %v", i, err)
		}
		rs = append(rs, r)
		if i%97 == 13 {
			victim := rs[i/3]
			eng.Unregister(victim)
			r2, err := eng.Register(arenaSumMonoid)
			if err != nil {
				t.Fatalf("churn re-register: %v", err)
			}
			rs[i/3] = r2
		}
	}
	// Touch the reducers high-page-first so the first ensureMapped call
	// must grow the bitmap to its full span in one step, then verify every
	// page and every recycled low address still resolves.
	if err := s.Run(func(c *sched.Context) {
		for i := len(rs) - 1; i >= 0; i-- {
			*core.Lookup(eng, c, rs[i]).(*int64)++
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range rs {
		if got := *r.Value().(*int64); got != 1 {
			t.Fatalf("reducer %d = %d, want 1", i, got)
		}
	}
	// Exactly one mapping per (worker, page): churn must not remap.
	if got := eng.WorkerMappedPages(0); got != pages {
		t.Fatalf("worker 0 mapped %d pages, want %d (pages remapped under churn)", got, pages)
	}
}

// TestMergeIntoReadOnlySlotSurvivesElision checks a merge into a view a
// trace only read: the parent trace resolves a reducer read-only, which
// creates the parent's own view, a nested trace writes the reducer and
// merges its deposit in, and the in-place reduce keeps the parent's view
// pointer.  The parent's deposit then carries the child's contribution
// and merges it like a written view.  The reducer is on the heap path: a
// read-only lookup of an arena-eligible sum is lent the zero block and
// leaves no view to merge into.
func TestMergeIntoReadOnlySlotSurvivesElision(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	r, _ := eng.Register(sumMonoid)
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		outer := eng.BeginTrace(w)
		word, _ := eng.LookupWord(c, r, 0, false) // read-only parent view
		if got := (*sumView)(word).v; got != 0 {
			t.Errorf("parent read-only view = %d, want 0", got)
		}
		// A stolen-child-shaped nested trace that writes the reducer.
		inner := eng.BeginTrace(w)
		core.Lookup(eng, c, r).(*sumView).v += 5
		d := eng.EndTrace(w, inner)
		eng.Merge(w, w.CurrentTrace(), d) // folds into the outer trace's slot
		d2 := eng.EndTrace(w, outer)
		if d2 == nil {
			t.Error("merged view was elided at the parent trace end")
		}
		eng.Merge(w, w.CurrentTrace(), d2)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Run(func(c *sched.Context) {}); err != nil {
		t.Fatalf("flush run: %v", err)
	}
	if got := r.Value().(*sumView).v; got != 5 {
		t.Fatalf("value = %d, want 5 (child contribution lost to elision)", got)
	}
}
