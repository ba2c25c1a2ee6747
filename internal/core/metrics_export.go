package core

import "repro/internal/metrics"

// engineLabel is the engine label value the memory-mapped engine exports
// under.
const engineLabel = "mm"

// SampleMetrics implements metrics.Source: it emits the engine's live
// counters as exporter samples.  The merge pipeline's padded counters, the
// flushed arena and lookup counters and the page pool's accounting are
// atomic loads; the directory's counters are read under its lock, which no
// lookup or merge takes — so sampling is safe at any moment of a run and
// never blocks a worker's lookups or merges.
func (e *MM) SampleMetrics(emit func(metrics.MetricSample)) {
	ms := e.MergeStats()
	metrics.EmitMergePipeline(emit, engineLabel, ms)
	metrics.EmitElisions(emit, engineLabel, ms.IdentityElisions, ms.SlotsMerged)
	metrics.EmitLookups(emit, engineLabel, e.FastPathStats())
	metrics.EmitArena(emit, engineLabel, e.ArenaStats())
	metrics.EmitDirectory(emit, engineLabel, e.DirectoryStats())

	ps := e.PoolStats()
	counter := func(name, help string, v int64) {
		emit(metrics.MetricSample{Name: name, Help: help, Kind: metrics.KindCounter,
			LabelKey: "engine", LabelValue: engineLabel, Value: float64(v)})
	}
	gauge := func(name, help string, v float64) {
		emit(metrics.MetricSample{Name: name, Help: help, Kind: metrics.KindGauge,
			LabelKey: "engine", LabelValue: engineLabel, Value: v})
	}
	counter("cilkm_pagepool_round_trips_total", "Page-pool lock round-trips (bulk operations count once).", ps.RoundTrips())
	counter("cilkm_pagepool_allocs_total", "SPA pages handed out by the page pool.", ps.Allocs)
	counter("cilkm_pagepool_frees_total", "SPA pages returned to the page pool.", ps.Frees)
	counter("cilkm_pagepool_fresh_pages_total", "Pages created because every pool was empty.", ps.FreshPages)
	counter("cilkm_pagepool_local_hits_total", "Allocations served by a worker's local pool.", ps.LocalHits)
	counter("cilkm_pagepool_global_hits_total", "Allocations served by the global pool.", ps.GlobalHits)
	gauge("cilkm_pagepool_outstanding_pages", "Pages currently checked out of the pool.", float64(ps.Outstanding()))
}
