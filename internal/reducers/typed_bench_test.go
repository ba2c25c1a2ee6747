package reducers

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// benchEachMechanism runs the benchmark body once per mechanism, on a
// single worker so the numbers isolate the lookup path (no steals, no
// merges — the steady state the paper's Figure 1 measures).
func benchEachMechanism(b *testing.B, fn func(b *testing.B, s *core.Session)) {
	for _, m := range Mechanisms() {
		b.Run(m.String(), func(b *testing.B) {
			s := NewSession(m, 1, EngineOptions{})
			defer s.Close()
			fn(b, s)
		})
	}
}

// BenchmarkTypedAdd is the typed steady-state update path: Add.Add through
// Handle's per-worker typed view cache.  Expect 0 allocs/op on both
// engines.
func BenchmarkTypedAdd(b *testing.B) {
	benchEachMechanism(b, func(b *testing.B, s *core.Session) {
		sum := NewAdd[int64](s.Engine())
		b.ReportAllocs()
		b.ResetTimer()
		_ = s.Run(func(c *sched.Context) {
			for i := 0; i < b.N; i++ {
				sum.Add(c, 1)
			}
		})
		b.StopTimer()
		if got := sum.Value(); got != int64(b.N) {
			b.Fatalf("sum = %d, want %d", got, b.N)
		}
	})
}

// BenchmarkTypedList is List.PushBack through the typed cache.  The local
// view is pre-grown to b.N inside the run and the timer reset after, so the
// measurement isolates the per-update lookup + append and is not dominated
// by growslice copies and GC of the retained list.
func BenchmarkTypedList(b *testing.B) {
	benchEachMechanism(b, func(b *testing.B, s *core.Session) {
		lst := NewList[int64](s.Engine())
		b.ReportAllocs()
		_ = s.Run(func(c *sched.Context) {
			*lst.View(c) = make([]int64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lst.PushBack(c, int64(i))
			}
			b.StopTimer()
		})
		if got := len(lst.Value()); got != b.N {
			b.Fatalf("list length = %d, want %d", got, b.N)
		}
	})
}

// BenchmarkTypedLookupSteadyState measures View(c) alone in the steady
// state — the handle's per-worker slot stays valid for the whole loop, so
// every iteration is the single-deref hit path: worker id, slot fetch,
// context/epoch compare, typed pointer.  The acceptance bar for the fast
// path is this number against BenchmarkRawSliceIndexBaseline: the hit must
// land within 1.5x of a raw array index.  The view pointer is accumulated
// into a sink so the compiler cannot hoist or elide the lookup.
func BenchmarkTypedLookupSteadyState(b *testing.B) {
	benchEachMechanism(b, func(b *testing.B, s *core.Session) {
		sum := NewAdd[int64](s.Engine())
		b.ReportAllocs()
		_ = s.Run(func(c *sched.Context) {
			sum.Add(c, 1) // fault the slot in: the loop measures hits only
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += *sum.View(c)
			}
			b.StopTimer()
			if sink == 0 {
				b.Fatal("lookup sink is zero; the view was never read")
			}
		})
	})
}

// BenchmarkReadViewUnwritten measures ReadView of an Add the trace never
// writes: every read is lent the trace's zero block, which no handle cache
// may hold, so each one runs viewMiss and Skeleton.LookupMiss.  It is
// the price of keeping the cache to views the trace owns, paid only by a
// program that re-reads a zero-identity reducer it does not write (such a
// read always yields the identity).  Compare BenchmarkTypedLookupSteadyState.
func BenchmarkReadViewUnwritten(b *testing.B) {
	benchEachMechanism(b, func(b *testing.B, s *core.Session) {
		sum := NewAdd[int64](s.Engine())
		b.ReportAllocs()
		_ = s.Run(func(c *sched.Context) {
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += *sum.ReadView(c)
			}
			b.StopTimer()
			if sink != 0 {
				b.Fatalf("lookup sink = %d, want 0: the zero block was written", sink)
			}
		})
		if got := core.LookupCount(s.Engine()); got < int64(b.N) {
			b.Fatalf("LookupCount = %d, want at least %d: a lend was cached", got, b.N)
		}
	})
}

// rawViewArray is the shape of the comparison floor: the simplest possible
// per-worker view store, a plain []V indexed by the executing worker's id.
// Any flat-array stand-in for a reducer has to resolve that id from the
// context, so the baseline resolves it too — leaving it out would compare
// the fast path against a loop the compiler folds to a constant load.  The
// accessor is noinline for the same reason: inlined, the loop-invariant
// index and load hoist out of the benchmark loop entirely.  The resulting
// code shape is one direct call, the context→worker→id loads, one
// bounds-checked index and one load — so the delta between the two
// benchmarks is exactly what the fast path adds (the slot fetch and the
// context and epoch compares).
type rawViewArray struct {
	views []int64
}

//go:noinline
func (r *rawViewArray) view(c *sched.Context) *int64 {
	return &r.views[c.Worker().ID()]
}

// BenchmarkRawSliceIndexBaseline is the floor BenchmarkTypedLookupSteadyState
// is judged against: the same accumulate loop reading through a raw []V
// array index per worker — no reducer machinery at all.
func BenchmarkRawSliceIndexBaseline(b *testing.B) {
	s := NewSession(MemoryMapped, 1, EngineOptions{})
	defer s.Close()
	raw := &rawViewArray{views: make([]int64, 8)}
	b.ReportAllocs()
	_ = s.Run(func(c *sched.Context) {
		raw.views[c.Worker().ID()] = 1
		b.ResetTimer()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += *raw.view(c)
		}
		b.StopTimer()
		if sink == 0 {
			b.Fatal("baseline sink is zero")
		}
	})
}

// BenchmarkTypedAddRotating rotates over four reducers.  Every typed handle
// keeps its own per-worker slot, so rotation still serves handle-cache
// hits.
func BenchmarkTypedAddRotating(b *testing.B) {
	benchEachMechanism(b, func(b *testing.B, s *core.Session) {
		sums := [4]*Add[int64]{}
		for i := range sums {
			sums[i] = NewAdd[int64](s.Engine())
		}
		b.ReportAllocs()
		b.ResetTimer()
		_ = s.Run(func(c *sched.Context) {
			idx := 0
			for i := 0; i < b.N; i++ {
				sums[idx].Add(c, 1)
				idx++
				if idx == 4 {
					idx = 0
				}
			}
		})
	})
}
