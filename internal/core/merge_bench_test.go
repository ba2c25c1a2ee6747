package core_test

import (
	"testing"

	"repro/internal/core"
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
