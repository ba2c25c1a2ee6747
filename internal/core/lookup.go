package core

import (
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Lookup returns the local view of r for the execution context c as an
// interface value: the boxed form of eng.LookupWord, for callers without a
// typed handle.  It hands out a view the caller may mutate through, so it
// is a mutable access and is never lent the zero block.  With a nil context
// (serial code outside the scheduler) it returns the leftmost view.
func Lookup(eng Engine, c *sched.Context, r *Reducer) any {
	word, _ := eng.LookupWord(c, r, 0, true)
	return r.monoid.box(word)
}

// LookupCount reports how many lookups reached eng's lookup structure since
// the last ResetOverheads: the hits plus the misses of its outcome counters
// (FastPathStats), zero for an engine that keeps none.  These are engine
// visits, not the program's lookups: the typed handles answer repeated
// lookups from their own caches.  Workers flush their counts at trace end;
// the figure is exact once Run has returned.
func LookupCount(eng Engine) int64 {
	fp, ok := eng.(interface {
		FastPathStats() metrics.LookupFastPathStats
	})
	if !ok {
		return 0
	}
	s := fp.FastPathStats()
	return s.Hits + s.Misses
}
