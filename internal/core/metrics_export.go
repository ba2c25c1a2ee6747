package core

import "repro/internal/metrics"

// SampleMetrics implements metrics.Source: the series every engine exports
// (Base.SampleMetrics) and the page pool's accounting, atomic loads that are
// safe at any moment of a run.
func (e *MM) SampleMetrics(emit func(metrics.MetricSample)) {
	e.Base.SampleMetrics(emit)
	ps := e.PoolStats()
	counter := func(name, help string, v int64) {
		emit(metrics.MetricSample{Name: name, Help: help, Kind: metrics.KindCounter,
			LabelKey: "engine", LabelValue: e.label, Value: float64(v)})
	}
	counter("cilkm_pagepool_round_trips_total", "Page-pool lock round-trips (bulk operations count once).", ps.RoundTrips())
	counter("cilkm_pagepool_allocs_total", "SPA pages handed out by the page pool.", ps.Allocs)
	counter("cilkm_pagepool_frees_total", "SPA pages returned to the page pool.", ps.Frees)
	counter("cilkm_pagepool_fresh_pages_total", "Pages created because every pool was empty.", ps.FreshPages)
	counter("cilkm_pagepool_local_hits_total", "Allocations served by a worker's local pool.", ps.LocalHits)
	counter("cilkm_pagepool_global_hits_total", "Allocations served by the global pool.", ps.GlobalHits)
	emit(metrics.MetricSample{Name: "cilkm_pagepool_outstanding_pages", Help: "Pages currently checked out of the pool.",
		Kind: metrics.KindGauge, LabelKey: "engine", LabelValue: e.label, Value: float64(ps.Outstanding())})
}
