package reducers

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestAdaptMonoidArenaEligibility pins which view types get the arena
// adapter: fixed-size pointer-free types do, anything carrying pointers
// (slices, maps, strings) stays on the plain adapter.
func TestAdaptMonoidArenaEligibility(t *testing.T) {
	if _, ok := AdaptMonoid[int](addMonoid[int]{}).(core.ArenaMonoid); !ok {
		t.Fatal("int views should be arena-eligible")
	}
	if _, ok := AdaptMonoid[bool](andMonoid{}).(core.ArenaMonoid); !ok {
		t.Fatal("bool views should be arena-eligible")
	}
	if _, ok := AdaptMonoid[Extreme[float64]](minMonoid[float64]{}).(core.ArenaMonoid); !ok {
		t.Fatal("Extreme[float64] (flat struct) should be arena-eligible")
	}
	if _, ok := AdaptMonoid[Extreme[string]](minMonoid[string]{}).(core.ArenaMonoid); ok {
		t.Fatal("Extreme[string] carries a string and must stay on the heap path")
	}
	if _, ok := AdaptMonoid[[]int](listMonoid[int]{}).(core.ArenaMonoid); ok {
		t.Fatal("slice views must stay on the heap path")
	}
	if _, ok := AdaptMonoid[map[string]int](mapMonoid[string, int]{combine: func(a, b int) int { return a + b }}).(core.ArenaMonoid); ok {
		t.Fatal("map views must stay on the heap path")
	}
	// Oversized pointer-free views fall back to the heap path too.
	type big struct{ a [40]int64 } // 320 bytes > largest class
	if _, ok := AdaptMonoid[big](TypedFuncMonoid[big]{
		IdentityFn: func() *big { return &big{} },
		ReduceFn:   func(l, r *big) *big { return l },
	}).(core.ArenaMonoid); ok {
		t.Fatal("oversized views must stay on the heap path")
	}
}

// TestArenaAdapterInitViewWritesIdentity checks that InitView reproduces
// the monoid identity — including non-zero identities like And's true —
// over memory holding a dead prior view.
func TestArenaAdapterInitViewWritesIdentity(t *testing.T) {
	am, ok := AdaptMonoid[bool](andMonoid{}).(core.ArenaMonoid)
	if !ok {
		t.Fatal("andMonoid should adapt to an ArenaMonoid")
	}
	if am.ViewBytes() != unsafe.Sizeof(false) {
		t.Fatalf("ViewBytes = %d, want %d", am.ViewBytes(), unsafe.Sizeof(false))
	}
	block := new(bool)
	*block = false // a dead prior view that is NOT the identity
	am.InitView(unsafe.Pointer(block))
	if !*block {
		t.Fatal("InitView did not reconstruct the And identity (true)")
	}

	me, ok := AdaptMonoid[Extreme[int]](minMonoid[int]{}).(core.ArenaMonoid)
	if !ok {
		t.Fatal("minMonoid should adapt to an ArenaMonoid")
	}
	ext := &Extreme[int]{Set: true, Val: 42}
	me.InitView(unsafe.Pointer(ext))
	if ext.Set || ext.Val != 0 {
		t.Fatalf("InitView left a dirty Extreme view: %+v", ext)
	}
}

// TestReadViewKeepsViewsElidable drives the typed read-only access path on
// the memory-mapped engine: a trace that only ReadViews a reducer deposits
// nothing, the merge pipeline counts an elision, and the value is
// untouched; a later trace that Views (mutable) merges normally.
func TestReadViewKeepsViewsElidable(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	sum := NewAdd[int](eng)
	if !sum.Reducer().ArenaEligible() {
		t.Fatal("Add[int] should be arena-eligible")
	}
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		// Trace 1: read-only.
		tr := eng.BeginTrace(w)
		if got := *sum.ReadView(c); got != 0 {
			t.Errorf("ReadView = %d, want identity 0", got)
		}
		if got := *sum.ReadView(c); got != 0 { // cached re-read
			t.Errorf("cached ReadView = %d, want 0", got)
		}
		d := eng.EndTrace(w, tr)
		if d != nil {
			t.Error("read-only trace produced a deposit")
		}
		eng.Merge(w, w.CurrentTrace(), d)
		// Trace 2: read-only first, then mutable — the write must survive.
		tr = eng.BeginTrace(w)
		_ = *sum.ReadView(c)
		*sum.View(c) += 9
		if got := *sum.ReadView(c); got != 9 {
			t.Errorf("ReadView after write = %d, want 9", got)
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
	if got := sum.Value(); got != 9 {
		t.Fatalf("final value = %d, want 9", got)
	}
	ms := eng.MergeStats()
	if ms.IdentityElisions != 1 {
		t.Fatalf("IdentityElisions = %d, want 1", ms.IdentityElisions)
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

// TestCountedReadViewStaysReadOnly pins the instrumented-run behaviour: on
// a lookup-counting engine, ReadView must still resolve through the
// read-only path (counted, but never stamping the written bit), so
// identity elision keeps working under instrumentation.
func TestCountedReadViewStaysReadOnly(t *testing.T) {
	mm := core.NewMM(core.MMConfig{Workers: 1})
	eng := core.CountLookups(mm)
	s := core.NewSession(1, eng)
	defer s.Close()
	sum := NewAdd[int](eng)
	const reads = 10
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		tr := eng.BeginTrace(w)
		for i := 0; i < reads; i++ {
			if got := *sum.ReadView(c); got != 0 {
				t.Errorf("counted ReadView = %d, want 0", got)
			}
		}
		d := eng.EndTrace(w, tr)
		if d != nil {
			t.Error("counted read-only trace produced a deposit")
		}
		eng.Merge(w, w.CurrentTrace(), d)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := core.LookupCount(eng); got != reads {
		t.Fatalf("LookupCount = %d, want %d (counted ReadView must count every access)", got, reads)
	}
	if ms := mm.MergeStats(); ms.IdentityElisions != 1 {
		t.Fatalf("IdentityElisions = %d, want 1", ms.IdentityElisions)
	}
	if got := sum.Value(); got != 0 {
		t.Fatalf("value = %d, want 0", got)
	}
}
