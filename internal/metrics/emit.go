package metrics

// Shared sample emitters.  Both reducer engines export through these
// helpers so the metric names, help strings and units stay identical; the
// engine label distinguishes the mechanisms when both are registered on
// one exporter.  Ratio gauges are computed here, at sample time, from the
// counters in the same snapshot — exporting the rate alongside the raw
// counters lets a dashboard show the headline number without PromQL while
// keeping the counters available for rate() arithmetic.

// counter emits one counter sample with an engine label.
func counter(emit func(MetricSample), engine, name, help string, v int64) {
	emit(MetricSample{Name: name, Help: help, Kind: KindCounter,
		LabelKey: "engine", LabelValue: engine, Value: float64(v)})
}

// gauge emits one gauge sample with an engine label.
func gauge(emit func(MetricSample), engine, name, help string, v float64) {
	emit(MetricSample{Name: name, Help: help, Kind: KindGauge,
		LabelKey: "engine", LabelValue: engine, Value: v})
}

// ratio returns num/den, or 0 when the denominator is zero.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// EmitMergePipeline emits the hypermerge counters.
func EmitMergePipeline(emit func(MetricSample), engine string, s MergePipelineStats) {
	counter(emit, engine, "cilkm_merges_total", "Completed hypermerges.", s.Merges)
	counter(emit, engine, "cilkm_merge_slots_total", "SPA slots walked by hypermerges.", s.SlotsMerged)
	counter(emit, engine, "cilkm_merge_reduces_total", "Monoid reduce calls performed by hypermerges.", s.Reduces)
	counter(emit, engine, "cilkm_merge_adopts_total", "Views adopted without a reduce (empty left slot).", s.Adopts)
	counter(emit, engine, "cilkm_bulk_page_fetches_total", "Bulk page-pool fetches issued by view transferal.", s.BulkPageFetches)
	counter(emit, engine, "cilkm_bulk_page_returns_total", "Bulk page-pool returns issued by the merge pipeline.", s.BulkPageReturns)
	counter(emit, engine, "cilkm_stale_view_drops_total", "Invalidated views dropped instead of merged.", s.StaleViewDrops)
}

// EmitLookups emits the engines' lookup outcome counters: the total
// (cilkm_lookups_total, engine visits = hits + misses), its three parts and
// the derived hit rate (visits answered by the precomputed index as a
// fraction of all visits).  They are always maintained.  A visit is a
// lookup that reached the engine, which a typed handle's cache hit does
// not.  Workers flush their counts at trace end, so a mid-run sample lags
// by at most one trace.
func EmitLookups(emit func(MetricSample), engine string, s LookupFastPathStats) {
	counter(emit, engine, "cilkm_lookups_total", "Reducer lookups that reached the engine (typed-handle cache hits excluded).", s.Hits+s.Misses)
	counter(emit, engine, "cilkm_fastpath_hits_total", "Engine lookups answered by the precomputed slot index.", s.Hits)
	counter(emit, engine, "cilkm_fastpath_misses_total", "Engine lookups that took the outlined miss path (first touches, zero-block lends, recycled slots, retired handles, hypermap below-head entries).", s.Misses)
	counter(emit, engine, "cilkm_fastpath_cold_misses_total", "Misses that found no view of their own: view creation, zero-block lend, stale drop or retired handle; equals misses on the memory-mapped engine.", s.ColdMisses)
	gauge(emit, engine, "cilkm_fastpath_hit_rate", "Engine lookups answered in place, as a fraction of all engine lookups.", ratio(s.Hits, s.Hits+s.Misses))
}

// EmitArena emits the per-worker view-arena aggregate, including the arena
// hit rate (free-list reuse as a fraction of arena allocations).
func EmitArena(emit func(MetricSample), engine string, s ArenaStats) {
	counter(emit, engine, "cilkm_arena_allocs_total", "View blocks handed out by the worker arenas.", s.Allocs)
	counter(emit, engine, "cilkm_arena_free_hits_total", "Arena allocations served from a free list (recycled views).", s.FreeHits)
	counter(emit, engine, "cilkm_arena_chunk_allocs_total", "Fresh bump chunks allocated by the arenas.", s.ChunkAllocs)
	counter(emit, engine, "cilkm_arena_frees_total", "Dead views returned to an arena free list.", s.Frees)
	counter(emit, engine, "cilkm_arena_heap_views_total", "Identity views heap-allocated because the monoid is not arena-eligible.", s.HeapViews)
	gauge(emit, engine, "cilkm_arena_free_blocks", "View blocks currently sitting on arena free lists.", float64(s.FreeBlocks))
	gauge(emit, engine, "cilkm_arena_hit_rate", "Arena allocations recycled from a free list, as a fraction.", ratio(s.FreeHits, s.Allocs))
}

// EmitDirectory emits the reducer-directory snapshot.
func EmitDirectory(emit func(MetricSample), engine string, s DirectoryStats) {
	gauge(emit, engine, "cilkm_directory_live_reducers", "Reducers currently registered.", float64(s.Live))
	gauge(emit, engine, "cilkm_directory_free_slots", "Recycled slots available on the directory free list.", float64(s.FreeSlots))
	counter(emit, engine, "cilkm_directory_registers_total", "Successful reducer registrations.", s.Registers)
	counter(emit, engine, "cilkm_directory_recycles_total", "Registrations served from the free list.", s.Recycles)
	counter(emit, engine, "cilkm_directory_unregisters_total", "Identity-checked unregistrations.", s.Unregisters)
	counter(emit, engine, "cilkm_directory_stale_unregisters_total", "Unregisters that lost the identity CAS.", s.StaleUnregisters)
}
