package hypermap

import "repro/internal/metrics"

// engineLabel is the engine label value the hypermap engine exports under.
const engineLabel = "hypermap"

// SampleMetrics implements metrics.Source.  The hypermap engine keeps no
// merge or arena counters, so it exports the subset of the shared metric
// names it actually tracks: identity elisions, lookup counters and
// the reducer-directory snapshot.  All values are safe to sample mid-run:
// atomic loads, and the directory's counters under its lock.
func (e *HM) SampleMetrics(emit func(metrics.MetricSample)) {
	emit(metrics.MetricSample{
		Name:     "cilkm_identity_elisions_total",
		Help:     "Never-written identity views elided instead of merged.",
		Kind:     metrics.KindCounter,
		LabelKey: "engine", LabelValue: engineLabel,
		Value: float64(e.IdentityElisions()),
	})
	metrics.EmitLookups(emit, engineLabel, e.FastPathStats())
	metrics.EmitDirectory(emit, engineLabel, e.DirectoryStats())
}
