package reducers

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/sched"
)

// seqMonoid is a noncommutative typed monoid — sequence concatenation —
// used to verify that views resolved through Handle's typed cache are
// still merged in exact serial order on both engines.
type seqMonoid struct{}

func (seqMonoid) Identity() *[]int { return new([]int) }
func (seqMonoid) Reduce(left, right *[]int) *[]int {
	*left = append(*left, *right...)
	return left
}

// TestTypedHandleNoncommutativeEquivalence runs noncommutative reducers
// (an int-sequence CustomOf and a String) through the typed handles under
// forced steals and checks the result equals the serial order, on both
// engines.  If the typed per-worker cache ever served a view across a
// steal, merge or trace boundary, concatenation order would break.
func TestTypedHandleNoncommutativeEquivalence(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 4)
		seq := NewCustomOf[[]int](s.Engine(), seqMonoid{})
		str := NewString(s.Engine())
		const n = 250
		var want strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&want, "%d;", i)
		}
		if err := s.Run(func(c *sched.Context) {
			c.ParallelForGrain(0, n, 1, func(c *sched.Context, i int) {
				time.Sleep(30 * time.Microsecond)
				// Two updates through the same context exercise the
				// cached fast path (the second View is a typed cache hit).
				v := seq.View(c)
				*v = append(*v, i)
				str.Append(c, fmt.Sprintf("%d;", i))
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if steals := s.Runtime().Stats().Steals; steals == 0 {
			t.Fatal("workload did not provoke any steals")
		}
		got := *seq.Value()
		if len(got) != n {
			t.Fatalf("sequence has %d elements, want %d", len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("sequence[%d] = %d; typed-cache merge order differs from serial order", i, v)
			}
		}
		if str.Value() != want.String() {
			t.Fatalf("string concatenation differs from serial order")
		}
	})
}

// TestTypedCacheInvalidationOnSlotReuse pins the interaction between the
// typed view cache and the directory's slot recycling: unregistering a
// reducer mid-run and registering a new one into the recycled slot (the
// directory's LIFO free list makes the reuse deterministic) must invalidate
// every cached typed view — the retired handle serves its frozen leftmost value
// and the new reducer starts from a clean identity view.
func TestTypedCacheInvalidationOnSlotReuse(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := NewSession(m, 1, EngineOptions{})
		t.Cleanup(s.Close)
		a := NewAdd[int](s.Engine())
		a.SetValue(10)
		var b *Add[int]
		if err := s.Run(func(c *sched.Context) {
			a.Add(c, 1) // populates a's typed cache for this context
			a.Add(c, 1) // cached fast path
			a.Close()   // mid-run unregister: epoch bump, slot freed
			b = NewAdd[int](s.Engine())
			if b.Reducer().Addr() != a.Reducer().Addr() {
				t.Errorf("slot not recycled: a at %d, b at %d", a.Reducer().Addr(), b.Reducer().Addr())
			}
			b.Add(c, 5) // must get a fresh identity view, not a's cached one
			// The retired handle re-resolves to the frozen leftmost value:
			// its typed cache entry must not survive the unregister.
			if got := *a.View(c); got != 10 {
				t.Errorf("retired handle view = %d, want frozen leftmost 10", got)
			}
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		// a's in-flight view (the two +1s) was dropped, never merged; b's
		// view merged normally despite living at the recycled address.
		if got := a.Value(); got != 10 {
			t.Fatalf("retired a.Value() = %d, want 10", got)
		}
		if got := b.Value(); got != 5 {
			t.Fatalf("b.Value() = %d, want 5 (typed cache leaked across slot reuse)", got)
		}
	})
}

// TestTypedNilContextSerialPath checks that every typed reducer behaves
// like an ordinary variable when used with a nil context outside the
// scheduler (the serial path of the paper's reducers).
func TestTypedNilContextSerialPath(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		eng := NewEngine(m, 1, EngineOptions{})
		sum := NewAdd[int](eng)
		sum.Add(nil, 5)
		sum.Add(nil, 7)
		if got := sum.Value(); got != 12 {
			t.Fatalf("serial sum = %d, want 12", got)
		}
		mn := NewMin[int](eng)
		mn.Update(nil, 9)
		mn.Update(nil, 3)
		if v, ok := mn.Value(); !ok || v != 3 {
			t.Fatalf("serial min = %d/%v, want 3", v, ok)
		}
		lst := NewList[string](eng)
		lst.PushBack(nil, "a")
		lst.PushBack(nil, "b")
		if got := lst.Value(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Fatalf("serial list = %v", got)
		}
		str := NewString(eng)
		str.Append(nil, "x")
		str.Append(nil, "y")
		if str.Value() != "xy" {
			t.Fatalf("serial string = %q", str.Value())
		}
		hist := NewMapOf[int, int](eng, func(a, b int) int { return a + b })
		hist.Update(nil, 1, 2)
		hist.Update(nil, 1, 3)
		if hist.Value()[1] != 5 {
			t.Fatalf("serial map = %v", hist.Value())
		}
		cu := NewCustomOf[[]int](eng, seqMonoid{})
		*cu.View(nil) = append(*cu.View(nil), 42)
		if got := *cu.Value(); len(got) != 1 || got[0] != 42 {
			t.Fatalf("serial custom = %v", got)
		}
		and := NewAnd(eng)
		and.Update(nil, true)
		and.Update(nil, false)
		or := NewOr(eng)
		or.Update(nil, false)
		or.Update(nil, true)
		if and.Value() || !or.Value() {
			t.Fatalf("serial and/or = %v/%v", and.Value(), or.Value())
		}
	})
}

// TestTypedMapCombinerCached checks MapOf's construction-time combiner
// cache: updates work even if the reducer's monoid is never consulted
// again, and duplicate keys combine correctly under parallel merges.
func TestTypedMapCombinerCached(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 4)
		var calls atomic.Int64 // the combiner runs on every worker
		hist := NewMapOf[int, int](s.Engine(), func(a, b int) int { calls.Add(1); return a + b })
		const n = 4000
		if err := s.Run(func(c *sched.Context) {
			c.ParallelFor(0, n, func(c *sched.Context, i int) {
				hist.Update(c, i%5, 1)
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		total := 0
		for _, v := range hist.Value() {
			total += v
		}
		if total != n {
			t.Fatalf("histogram total = %d, want %d", total, n)
		}
		if calls.Load() == 0 {
			t.Fatal("combiner was never invoked")
		}
	})
}

// TestAdaptMonoidRoundTrip checks the typed→word-level monoid built at
// registration: identity and reduce must behave identically when an engine
// runs them on view words (the leftmost view is an Identity, the root
// trace's view another, and the root merge is leftmost ⊗ root).
func TestAdaptMonoidRoundTrip(t *testing.T) {
	s := NewSession(Hypermap, 1, EngineOptions{})
	defer s.Close()
	eng := s.Engine()
	red, err := eng.Register(AdaptMonoid[[]int](seqMonoid{}))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	l := red.Value().(*[]int)
	*l = append(*l, 1)
	if err := s.Run(func(c *sched.Context) {
		r := core.Lookup(eng, c, red).(*[]int)
		*r = append(*r, 2, 3)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := *red.Value().(*[]int); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("adapted reduce = %v", got)
	}
	tf := TypedFuncMonoid[int]{
		IdentityFn: func() *int { return new(int) },
		ReduceFn:   func(a, b *int) *int { *a += *b; return a },
	}
	x, y := tf.Identity(), tf.Identity()
	*x, *y = 4, 5
	if *tf.Reduce(x, y) != 9 {
		t.Fatal("TypedFuncMonoid reduce failed")
	}
}

// TestNewCloseAllocations pins what registering and retiring a prebuilt
// reducer allocates on either engine: the core.Reducer, its leftmost view
// and the handle's view cache (the handle itself stays on this loop's
// stack).  The monoid kernel and the identity value it captures are built
// once per zero-size monoid type, by the first NewMonoid.
func TestNewCloseAllocations(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		eng := NewEngine(m, 2, EngineOptions{})
		NewAdd[int64](eng).Close() // the first builds the type's monoid
		if n := testing.AllocsPerRun(200, func() { NewAdd[int64](eng).Close() }); n != 3 {
			t.Errorf("NewAdd+Close allocates %.1f objects, want 3", n)
		}
	})
}

// TestJobSessionHandleDevirtualized: a handle registered through a per-job
// session resolves its misses through the concrete engine, as one
// registered on the engine itself does, because the reducer records the
// engine that registered it rather than the facade it was registered
// through.
func TestJobSessionHandleDevirtualized(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		eng := NewEngine(m, 2, EngineOptions{})
		js := core.NewJobSession(eng)
		defer js.Retire()
		h := NewAdd[int64](js)
		mm, _ := eng.(*core.MM)
		hm, _ := eng.(*hypermap.HM)
		if h.mm != mm || h.hm != hm {
			t.Errorf("handle miss paths mm=%p hm=%p, want mm=%p hm=%p", h.mm, h.hm, mm, hm)
		}
	})
}

// TestTypedFuncMonoidsNotShared: a monoid with state is built per
// registration, so two TypedFuncMonoid handles of one view type keep their
// own Identity and Reduce.
func TestTypedFuncMonoidsNotShared(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 2)
		sum := NewCustomOf[int64](s.Engine(), TypedFuncMonoid[int64]{
			IdentityFn: func() *int64 { return new(int64) },
			ReduceFn:   func(a, b *int64) *int64 { *a += *b; return a },
		})
		prod := NewCustomOf[int64](s.Engine(), TypedFuncMonoid[int64]{
			IdentityFn: func() *int64 { one := int64(1); return &one },
			ReduceFn:   func(a, b *int64) *int64 { *a *= *b; return a },
		})
		*sum.Value(), *prod.Value() = 3, 3
		if err := s.Run(func(c *sched.Context) {
			*sum.View(c) += 5
			*prod.View(c) *= 5
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got, want := [2]int64{*sum.Value(), *prod.Value()}, [2]int64{8, 15}; got != want {
			t.Errorf("sum, product = %v, want %v", got, want)
		}
		sum.Close()
		prod.Close()
	})
}
