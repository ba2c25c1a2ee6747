package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// This file benchmarks the word-packed SPA storage layer: the post-steal
// first lookup (view creation) on the arena vs the heap path, and the
// hypermerge at varying written-view fractions (identity-view elision).

// benchFirstLookup measures the post-steal first lookup: every op resolves
// a reducer that has no view in the current trace, so it runs the full
// slow path (identity-view creation + slot insertion).  The trace is
// rolled every K ops — EndTrace + hypermerge into the root trace — which
// both recycles the views (funding the arena free lists) and guarantees
// the next K lookups are first lookups again.  The roll cost is amortised
// across K ops and reported in ns/op like the paper amortises view
// bookkeeping against steals.
func benchFirstLookup(b *testing.B, m core.Monoid, bump func(v any)) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	const K = 256
	rs := make([]*core.Reducer, K)
	for i := range rs {
		rs[i], _ = eng.Register(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		w := c.Worker()
		tr := eng.BeginTrace(w)
		k := 0
		for i := 0; i < b.N; i++ {
			bump(core.Lookup(eng, c, rs[k]))
			k++
			if k == K {
				d := eng.EndTrace(w, tr)
				eng.Merge(w, w.CurrentTrace(), d)
				tr = eng.BeginTrace(w)
				k = 0
			}
		}
		d := eng.EndTrace(w, tr)
		eng.Merge(w, w.CurrentTrace(), d)
	})
	b.StopTimer()
	st := eng.ArenaStats()
	if st.Allocs > 0 {
		b.ReportMetric(float64(st.FreeHits)/float64(st.Allocs), "arena-reuse")
	}
}

// BenchmarkMMFirstLookupArena is the arena path: a pointer-free view's identity
// views are carved from the worker's view arena, so after warm-up the
// whole steal→lookup→merge cycle allocates nothing (0 allocs/op).
func BenchmarkMMFirstLookupArena(b *testing.B) {
	benchFirstLookup(b, arenaSumMonoid, func(v any) { *v.(*int64)++ })
}

// BenchmarkMMFirstLookupHeap is the same cycle over a pointer-holding view whose
// Identity calls the heap allocator — the pre-arena baseline.
func BenchmarkMMFirstLookupHeap(b *testing.B) {
	benchFirstLookup(b, sumMonoid, func(v any) { v.(*sumView).v++ })
}

// benchMergeWritten measures one full trace cycle (begin, touch K
// reducers, transfer, hypermerge) with a controlled fraction of written
// views: the rest are resolved read-only and must be elided — no reduce
// call, and for the all-read-only case no pagepool traffic at all.
func benchMergeWritten(b *testing.B, writtenPct int) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	const K = 256
	rs := make([]*core.Reducer, K)
	for i := range rs {
		rs[i], _ = eng.Register(arenaSumMonoid)
	}
	written := K * writtenPct / 100
	b.ReportAllocs()
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		w := c.Worker()
		for i := 0; i < b.N; i++ {
			tr := eng.BeginTrace(w)
			for k, r := range rs {
				if k < written {
					*core.Lookup(eng, c, r).(*int64)++
				} else {
					word, _ := eng.LookupWord(c, r, 0, false)
					_ = word
				}
			}
			d := eng.EndTrace(w, tr)
			eng.Merge(w, w.CurrentTrace(), d)
		}
	})
	b.StopTimer()
	ms := eng.MergeStats()
	pool := eng.PoolStats()
	n := float64(b.N)
	b.ReportMetric(float64(ms.Reduces+ms.Adopts)/n, "slots-merged/cycle")
	b.ReportMetric(float64(ms.IdentityElisions)/n, "elided/cycle")
	b.ReportMetric(float64(pool.RoundTrips())/n, "poolops/cycle")
}

func BenchmarkMMMergeWritten0(b *testing.B)   { benchMergeWritten(b, 0) }
func BenchmarkMMMergeWritten50(b *testing.B)  { benchMergeWritten(b, 50) }
func BenchmarkMMMergeWritten100(b *testing.B) { benchMergeWritten(b, 100) }
