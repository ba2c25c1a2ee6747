package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/sched"
)

// benchMergeCycle measures one full trace cycle — begin a trace, touch
// every reducer, transfer the views out in one bulk page fetch, and
// hypermerge the deposit back — at a given width.
func benchMergeCycle(b *testing.B, nred int) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, nred)
	for i := range rs {
		rs[i], _ = eng.Register(benchMonoid)
	}
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		w := c.Worker()
		for i := 0; i < b.N; i++ {
			tr := eng.BeginTrace(w)
			for _, r := range rs {
				core.Lookup(eng, c, r).(*benchView).v++
			}
			d := eng.EndTrace(w, tr)
			eng.Merge(w, w.CurrentTrace(), d)
		}
	})
	b.StopTimer()
	ms := eng.MergeStats()
	pool := eng.PoolStats()
	if ms.SlotsMerged > 0 {
		b.ReportMetric(float64(pool.RoundTrips())/float64(ms.SlotsMerged), "poolops/slot")
	}
}

func BenchmarkMerge64(b *testing.B)  { benchMergeCycle(b, 64) }
func BenchmarkMerge256(b *testing.B) { benchMergeCycle(b, 256) }
func BenchmarkMerge1k(b *testing.B)  { benchMergeCycle(b, 1024) }

// benchRootMerge measures the root merge of a 128-view deposit on one
// engine.  Each op is one trace on the session's worker: a mutable lookup
// of each of 128 Add-shaped arena reducers, EndTrace, and MergeRootDeposit
// of the deposit into the leftmost views.  ns/op is the whole cycle; the
// ns/view metric is the root merge alone, timed around MergeRootDeposit.
func benchRootMerge(b *testing.B, eng core.Engine) {
	const views = 128
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, views)
	for i := range rs {
		rs[i], _ = eng.Register(arenaSumMonoid)
	}
	var merge time.Duration
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		w := c.Worker()
		for i := 0; i < b.N; i++ {
			tr := eng.BeginTrace(w)
			for _, r := range rs {
				word, _ := eng.LookupWord(c, r, 0, true)
				*(*int64)(word)++
			}
			d := eng.EndTrace(w, tr)
			t0 := time.Now()
			eng.MergeRootDeposit(d)
			merge += time.Since(t0)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(merge.Nanoseconds())/float64(b.N*views), "ns/view")
	if got := *(*int64)(rs[views-1].LeftmostView()); got != int64(b.N) {
		b.Fatalf("leftmost = %d after %d root merges, want %d", got, b.N, b.N)
	}
}

// BenchmarkRootMerge128 is the root merge per view on both engines: the
// fold of each written view into its leftmost view, under the engine's
// leftmost lock taken once per deposit.
func BenchmarkRootMerge128(b *testing.B) {
	b.Run("mm", func(b *testing.B) { benchRootMerge(b, core.NewMM(core.MMConfig{Workers: 1})) })
	b.Run("hypermap", func(b *testing.B) { benchRootMerge(b, hypermap.New(hypermap.Config{Workers: 1})) })
}
