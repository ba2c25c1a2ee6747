package reducers

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestAdaptMonoidArenaEligibility pins which view types are arena-placed:
// fixed-size pointer-free types are, anything carrying pointers (slices,
// maps, strings) or larger than the largest class stays on the heap path.
func TestAdaptMonoidArenaEligibility(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	eligible := func(m core.Monoid) bool {
		r, err := eng.Register(m)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		defer eng.Unregister(r)
		return r.ArenaEligible()
	}
	if !eligible(AdaptMonoid[int](addMonoid[int]{})) {
		t.Fatal("int views should be arena-eligible")
	}
	if !eligible(AdaptMonoid[bool](andMonoid{})) {
		t.Fatal("bool views should be arena-eligible")
	}
	if !eligible(AdaptMonoid[Extreme[float64]](minMonoid[float64]{})) {
		t.Fatal("Extreme[float64] (flat struct) should be arena-eligible")
	}
	if eligible(AdaptMonoid[Extreme[string]](minMonoid[string]{})) {
		t.Fatal("Extreme[string] carries a string and must stay on the heap path")
	}
	if eligible(AdaptMonoid[[]int](listMonoid[int]{})) {
		t.Fatal("slice views must stay on the heap path")
	}
	if eligible(AdaptMonoid[map[string]int](mapMonoid[string, int]{combine: func(a, b int) int { return a + b }})) {
		t.Fatal("map views must stay on the heap path")
	}
	// Oversized pointer-free views fall back to the heap path too.
	type big struct{ a [40]int64 } // 320 bytes > largest class
	if eligible(AdaptMonoid[big](TypedFuncMonoid[big]{
		IdentityFn: func() *big { return &big{} },
		ReduceFn:   func(l, r *big) *big { return l },
	})) {
		t.Fatal("oversized views must stay on the heap path")
	}
}

// TestArenaAdapterInitViewWritesIdentity checks that an arena-placed first
// lookup reproduces the monoid identity — including non-zero identities
// like And's true — over a block holding a dead prior view: the first trace
// leaves a view that is not the identity, the merge recycles its block, and
// the second trace's first lookup is served that block.  Min's is a View:
// its identity is the zero value, so a first ReadView would be served the
// trace's zero block and create no view at all.
func TestArenaAdapterInitViewWritesIdentity(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	and := NewAnd(eng)
	min := NewMin[int](eng)
	if !and.Reducer().ArenaEligible() || !min.Reducer().ArenaEligible() {
		t.Fatal("And and Min[int] should be arena-eligible")
	}
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		and.Update(c, true) // the current trace's view, which survives the merge
		min.Update(c, 50)
		tr := eng.BeginTrace(w)
		and.Update(c, false)
		min.Update(c, 42)
		eng.Merge(w, w.CurrentTrace(), eng.EndTrace(w, tr))
		tr = eng.BeginTrace(w)
		if !*and.ReadView(c) {
			t.Error("first ReadView over a recycled block did not read the And identity (true)")
		}
		if ext := *min.View(c); ext.Set || ext.Val != 0 {
			t.Errorf("first ReadView over a recycled block read a dirty Extreme view: %+v", ext)
		}
		eng.Merge(w, w.CurrentTrace(), eng.EndTrace(w, tr))
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := eng.ArenaStats(); st.FreeHits < 2 {
		t.Fatalf("FreeHits = %d, want >= 2: the second trace's views did not reuse the dead blocks", st.FreeHits)
	}
	if and.Value() {
		t.Error("And = true, want false")
	}
	if v, ok := min.Value(); !ok || v != 42 {
		t.Errorf("Min = %d, %v, want 42, true", v, ok)
	}
}

// TestReadViewKeepsViewsElidable drives the typed read-only access path on
// the memory-mapped engine: a trace that only ReadViews a reducer deposits
// the view it created and the hypermerge adopts it, leaving the value
// untouched; a later trace that reads and then Views (mutable) merges its
// write by a reduce.  The reducer is an And, whose identity (true) is not
// the zero value, so its first ReadView creates a view of the trace's own.
func TestReadViewKeepsViewsElidable(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	and := NewAnd(eng)
	if !and.Reducer().ArenaEligible() {
		t.Fatal("And should be arena-eligible")
	}
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		// Trace 1: read-only.
		tr := eng.BeginTrace(w)
		if got := *and.ReadView(c); !got {
			t.Errorf("ReadView = %v, want identity true", got)
		}
		if got := *and.ReadView(c); !got { // cached re-read
			t.Errorf("cached ReadView = %v, want true", got)
		}
		d := eng.EndTrace(w, tr)
		if d == nil {
			t.Error("read-only trace deposited nothing")
		}
		eng.Merge(w, w.CurrentTrace(), d)
		// Trace 2: read-only first, then mutable — the write must survive.
		tr = eng.BeginTrace(w)
		_ = *and.ReadView(c)
		and.Update(c, false)
		if got := *and.ReadView(c); got {
			t.Errorf("ReadView after write = %v, want false", got)
		}
		d = eng.EndTrace(w, tr)
		if d == nil {
			t.Error("written view was elided")
		}
		eng.Merge(w, w.CurrentTrace(), d)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Run(func(c *sched.Context) {}); err != nil {
		t.Fatalf("flush run: %v", err)
	}
	if got := and.Value(); got {
		t.Fatalf("final value = %v, want false", got)
	}
	ms := eng.MergeStats()
	if ms.IdentityElisions != 0 || ms.Adopts != 1 || ms.Reduces != 1 {
		t.Fatalf("elisions=%d adopts=%d reduces=%d, want 0, 1 and 1: the read-only view is adopted, the written one reduced into it",
			ms.IdentityElisions, ms.Adopts, ms.Reduces)
	}
}

// TestTypedUpdatesRecycleArenaViews checks the full typed pipeline at
// steady state: repeated steal-shaped trace cycles over typed Add handles
// draw every identity view from the arena free lists.
func TestTypedUpdatesRecycleArenaViews(t *testing.T) {
	const reps = 16
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	sums := make([]*Add[int64], 8)
	for i := range sums {
		sums[i] = NewAdd[int64](eng)
	}
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		for rep := 0; rep < reps; rep++ {
			tr := eng.BeginTrace(w)
			for _, h := range sums {
				h.Add(c, 1)
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
	for i, h := range sums {
		if got := h.Value(); got != reps {
			t.Fatalf("sum %d = %d, want %d", i, got, reps)
		}
	}
	st := eng.ArenaStats()
	if st.HeapViews != 0 {
		t.Fatalf("HeapViews = %d, want 0 on the typed arena path", st.HeapViews)
	}
	if st.FreeHits == 0 {
		t.Fatal("typed trace cycles never hit the arena free list")
	}
}
