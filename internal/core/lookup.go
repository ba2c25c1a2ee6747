package core

import (
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// Lookup returns the local view of r for the execution context c as an
// interface value: the boxed form of eng.LookupWord, for callers without a
// typed handle.  It hands out a view the caller may mutate through, so it
// is a mutable access and stamps the written bit.  With a nil context
// (serial code outside the scheduler) it returns the leftmost view.
func Lookup(eng Engine, c *sched.Context, r *Reducer) any {
	word, _ := eng.LookupWord(c, r, 0, true)
	return r.monoid.box(word)
}

// counting is the engine CountLookups builds.
type counting struct{ Engine }

// CountLookups wraps eng so that every program lookup reaches it, which
// makes the engine's lookup outcome counters (LookupCount) count the
// program's lookups exactly — what the PBFS experiment reports.  The
// wrapper answers every LookupWord with epoch zero, the "do not cache"
// contract, and is not one of the concrete engines the typed handles
// devirtualize, so a handle registered on it (directly or through a
// JobSession) keeps no view cache and pays one interface dispatch per
// access.
func CountLookups(eng Engine) Engine { return counting{eng} }

func (e counting) LookupWord(c *sched.Context, r *Reducer, prevEpoch uint64, mutable bool) (unsafe.Pointer, uint64) {
	word, _ := e.Engine.LookupWord(c, r, prevEpoch, mutable)
	return word, 0
}

// SampleMetrics implements metrics.Source by delegation, so a counting
// engine exports what the engine it wraps exports.
func (e counting) SampleMetrics(emit func(metrics.MetricSample)) {
	if src, ok := e.Engine.(metrics.Source); ok {
		src.SampleMetrics(emit)
	}
}

// LookupCount reports how many lookups reached eng's lookup structure since
// the last ResetOverheads: the hits plus the misses of its outcome counters
// (FastPathStats), zero for an engine that keeps none.  The typed handles
// answer repeated lookups from their own caches, so this equals the
// program's lookup count only on an engine built by CountLookups.  Workers
// flush their counts at trace end; the figure is exact once Run has
// returned.
func LookupCount(eng Engine) int64 {
	if c, ok := eng.(counting); ok {
		eng = c.Engine
	}
	fp, ok := eng.(interface {
		FastPathStats() metrics.LookupFastPathStats
	})
	if !ok {
		return 0
	}
	s := fp.FastPathStats()
	return s.Hits + s.Misses
}
