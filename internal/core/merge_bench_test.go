package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// benchMergeCycle measures one full pipeline cycle — begin a trace, touch
// every reducer, transfer the views out in one bulk page fetch, and
// hypermerge the deposit back — for a given width and batching config.
func benchMergeCycle(b *testing.B, nred, workers, batch, threshold int) {
	eng := core.NewMM(core.MMConfig{
		Workers:                workers,
		MergeBatchSize:         batch,
		ParallelMergeThreshold: threshold,
	})
	s := core.NewSession(workers, eng)
	defer s.Close()
	rs := make([]*core.Reducer, nred)
	for i := range rs {
		rs[i], _ = eng.Register(benchMonoid{})
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
	if ms.Merges > 0 {
		b.ReportMetric(float64(ms.ParallelMerges)/float64(ms.Merges), "parallel/merge")
	}
}

func BenchmarkMergeSerial64(b *testing.B)    { benchMergeCycle(b, 64, 1, 32, 1<<30) }
func BenchmarkMergeSerial256(b *testing.B)   { benchMergeCycle(b, 256, 1, 32, 1<<30) }
func BenchmarkMergeParallel256(b *testing.B) { benchMergeCycle(b, 256, 4, 32, 96) }
func BenchmarkMergeParallel1k(b *testing.B)  { benchMergeCycle(b, 1024, 4, 32, 96) }
