// Package pagepool provides the memory pools the Cilk-M runtime uses for
// SPA map pages.  The paper structures them "like the rest of the pools for
// the internal memory allocator managed by the runtime": every worker owns
// a local pool and a global pool rebalances the distribution between local
// pools in the manner of Hoard.  Only empty SPA maps may be recycled, which
// callers guarantee by resetting pages before release; the pool additionally
// verifies the invariant when handed a checker.
package pagepool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// Stats summarises pool activity.
type Stats struct {
	Allocs        int64 // pages handed out
	Frees         int64 // pages returned
	FreshPages    int64 // pages created because every pool was empty
	LocalHits     int64 // allocations served by the worker's local pool
	GlobalHits    int64 // allocations served by the global pool
	Rebalances    int64 // local→global spills
	GlobalPages   int64 // pages currently held by the global pool
	LocalPages    int64 // pages currently held across local pools
	RejectedDirty int64 // releases rejected because the page was not empty
	SingleGets    int64 // Get calls (one lock round-trip each)
	SinglePuts    int64 // Put calls (one lock round-trip each)
	BulkGets      int64 // GetN calls (one round-trip regardless of count)
	BulkPuts      int64 // PutN calls (one round-trip regardless of count)
}

// RoundTrips returns the number of pool operations performed: a single-page
// Get or Put counts one, and a bulk GetN or PutN counts one regardless of
// how many pages it moved.  The hypermerge's bulk-page-movement invariant —
// fewer pool operations than slots merged — is asserted against this.
func (s Stats) RoundTrips() int64 {
	return s.SingleGets + s.SinglePuts + s.BulkGets + s.BulkPuts
}

// Outstanding reports the number of pages currently checked out of the
// pool: handed out and neither returned nor rejected as dirty (a rejected
// page is dropped to the garbage collector, closing its accounting).  It is
// the pool half of the runtime's leak invariant — zero whenever no job is
// in flight, including after a panicked or cancelled job.
func (s Stats) Outstanding() int64 {
	return s.Allocs - s.Frees - s.RejectedDirty
}

// Pool is a Hoard-style two-level page pool for values of type T.
type Pool[T any] struct {
	// newPage creates a fresh page when both pools are empty.
	newPage func() T
	// isEmpty, when non-nil, validates the "only empty pages are recycled"
	// invariant on release.
	isEmpty func(T) bool
	// localMax bounds the size of one local pool; excess pages spill to
	// the global pool (the Hoard-style rebalancing trigger).  New sets it
	// to 8.
	localMax int

	global struct {
		mu    sync.Mutex
		pages []T
	}
	locals []*localPool[T]

	allocs        atomic.Int64
	frees         atomic.Int64
	fresh         atomic.Int64
	localHits     atomic.Int64
	globalHits    atomic.Int64
	rebalances    atomic.Int64
	rejectedDirty atomic.Int64
	singleGets    atomic.Int64
	singlePuts    atomic.Int64
	bulkGets      atomic.Int64
	bulkPuts      atomic.Int64
}

type localPool[T any] struct {
	mu    sync.Mutex
	pages []T
}

// Option configures a Pool.
type Option[T any] func(*Pool[T])

// WithEmptyCheck installs a validator that must report true for a page to
// be accepted back into the pool.
func WithEmptyCheck[T any](isEmpty func(T) bool) Option[T] {
	return func(p *Pool[T]) { p.isEmpty = isEmpty }
}

// New creates a pool for nWorkers workers.  newPage is called to create
// fresh pages when no recycled page is available.
func New[T any](nWorkers int, newPage func() T, opts ...Option[T]) *Pool[T] {
	if nWorkers < 1 {
		nWorkers = 1
	}
	p := &Pool[T]{
		newPage:  newPage,
		localMax: 8,
		locals:   make([]*localPool[T], nWorkers),
	}
	for i := range p.locals {
		p.locals[i] = &localPool[T]{}
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Workers returns the number of local pools.
func (p *Pool[T]) Workers() int { return len(p.locals) }

// Get returns a page for the given worker, preferring the worker's local
// pool, then the global pool, then a fresh allocation.
func (p *Pool[T]) Get(worker int) T {
	p.allocs.Add(1)
	p.singleGets.Add(1)
	lp := p.local(worker)

	lp.mu.Lock()
	if n := len(lp.pages); n > 0 {
		pg := lp.pages[n-1]
		lp.pages = lp.pages[:n-1]
		lp.mu.Unlock()
		p.localHits.Add(1)
		return pg
	}
	lp.mu.Unlock()

	p.global.mu.Lock()
	if n := len(p.global.pages); n > 0 {
		pg := p.global.pages[n-1]
		p.global.pages = p.global.pages[:n-1]
		p.global.mu.Unlock()
		p.globalHits.Add(1)
		return pg
	}
	p.global.mu.Unlock()

	p.fresh.Add(1)
	return p.newPage()
}

// Put returns a page to the given worker's local pool.  If the pool has an
// emptiness checker and the page is not empty, the page is dropped and the
// rejection is counted, preserving the invariant that only empty pages are
// recycled.  When the local pool exceeds its bound, half of it spills to
// the global pool.
func (p *Pool[T]) Put(worker int, page T) {
	if p.isEmpty != nil && !p.isEmpty(page) {
		p.rejectedDirty.Add(1)
		return
	}
	p.frees.Add(1)
	p.singlePuts.Add(1)
	lp := p.local(worker)
	lp.mu.Lock()
	lp.pages = append(lp.pages, page)
	if len(lp.pages) > p.localMax {
		// Copy the spill before unlocking: the suffix slots are about to be
		// vacated, and another Put for the same worker id could otherwise
		// overwrite them while they are still aliased here.
		spill := append([]T(nil), lp.pages[p.localMax/2:]...)
		clearTail(lp.pages, len(lp.pages)-p.localMax/2)
		lp.pages = lp.pages[:p.localMax/2]
		lp.mu.Unlock()
		p.rebalances.Add(1)
		p.global.mu.Lock()
		p.global.pages = append(p.global.pages, spill...)
		p.global.mu.Unlock()
		return
	}
	lp.mu.Unlock()
}

// GetN returns n pages for the given worker in one pool round-trip: the
// worker's local pool is drained first, then the global pool, each under a
// single lock acquisition, and any shortfall is made up with fresh pages.
// The batched view-transferal path uses it to fetch all the public SPA
// pages a deposit needs at once instead of one pool trip per page.
func (p *Pool[T]) GetN(worker int, n int) []T {
	if n <= 0 {
		return nil
	}
	p.allocs.Add(int64(n))
	p.bulkGets.Add(1)
	out := make([]T, 0, n)

	lp := p.local(worker)
	lp.mu.Lock()
	if take := min(n, len(lp.pages)); take > 0 {
		out = append(out, lp.pages[len(lp.pages)-take:]...)
		clearTail(lp.pages, take)
		lp.pages = lp.pages[:len(lp.pages)-take]
		p.localHits.Add(int64(take))
	}
	lp.mu.Unlock()

	if len(out) < n {
		p.global.mu.Lock()
		if take := min(n-len(out), len(p.global.pages)); take > 0 {
			out = append(out, p.global.pages[len(p.global.pages)-take:]...)
			clearTail(p.global.pages, take)
			p.global.pages = p.global.pages[:len(p.global.pages)-take]
			p.globalHits.Add(int64(take))
		}
		p.global.mu.Unlock()
	}

	for len(out) < n {
		p.fresh.Add(1)
		out = append(out, p.newPage())
	}
	return out
}

// TryGetN is GetN with an exhaustion path: it fails (allocating nothing)
// when the pagepool/getn failpoint fires.  View transferal fetches its
// deposit pages through it, so a chaos plan can fail a deposit mid-job and
// the leak accounting can prove nothing escaped.
func (p *Pool[T]) TryGetN(worker int, n int) ([]T, error) {
	if n > 0 && faultinject.Enabled() {
		if err := faultinject.Error(faultinject.PagepoolGetN); err != nil {
			return nil, fmt.Errorf("pagepool: bulk allocation of %d pages failed: %w", n, err)
		}
	}
	return p.GetN(worker, n), nil
}

// PutN returns pages to the given worker's local pool in one round-trip.
// Non-empty pages are dropped (and counted) exactly as in Put; a local pool
// that ends up over its bound spills half to the global pool.  The caller's
// slice is never mutated: when a dirty page forces filtering, the clean
// pages are gathered into a fresh slice.
func (p *Pool[T]) PutN(worker int, pages []T) {
	p.bulkPuts.Add(1)
	kept := pages
	if p.isEmpty != nil {
		for i := range pages {
			if p.isEmpty(pages[i]) {
				continue
			}
			fresh := append(make([]T, 0, len(pages)-1), pages[:i]...)
			for _, pg := range pages[i:] {
				if p.isEmpty(pg) {
					fresh = append(fresh, pg)
				} else {
					p.rejectedDirty.Add(1)
				}
			}
			kept = fresh
			break
		}
	}
	if len(kept) == 0 {
		return
	}
	p.frees.Add(int64(len(kept)))
	lp := p.local(worker)
	lp.mu.Lock()
	lp.pages = append(lp.pages, kept...)
	if len(lp.pages) > p.localMax {
		spill := append([]T(nil), lp.pages[p.localMax/2:]...)
		clearTail(lp.pages, len(lp.pages)-p.localMax/2)
		lp.pages = lp.pages[:p.localMax/2]
		lp.mu.Unlock()
		p.rebalances.Add(1)
		p.global.mu.Lock()
		p.global.pages = append(p.global.pages, spill...)
		p.global.mu.Unlock()
		return
	}
	lp.mu.Unlock()
}

// clearTail zeroes the last n slots of pages so vacated entries do not pin
// page memory through the slice's backing array.
func clearTail[T any](pages []T, n int) {
	var zero T
	for i := len(pages) - n; i < len(pages); i++ {
		pages[i] = zero
	}
}

// Prime pre-populates the global pool with n fresh pages.
func (p *Pool[T]) Prime(n int) {
	if n <= 0 {
		return
	}
	pages := make([]T, 0, n)
	for i := 0; i < n; i++ {
		pages = append(pages, p.newPage())
	}
	p.global.mu.Lock()
	p.global.pages = append(p.global.pages, pages...)
	p.global.mu.Unlock()
}

// Stats returns a snapshot of the pool counters.
func (p *Pool[T]) Stats() Stats {
	s := Stats{
		Allocs:        p.allocs.Load(),
		Frees:         p.frees.Load(),
		FreshPages:    p.fresh.Load(),
		LocalHits:     p.localHits.Load(),
		GlobalHits:    p.globalHits.Load(),
		Rebalances:    p.rebalances.Load(),
		RejectedDirty: p.rejectedDirty.Load(),
		SingleGets:    p.singleGets.Load(),
		SinglePuts:    p.singlePuts.Load(),
		BulkGets:      p.bulkGets.Load(),
		BulkPuts:      p.bulkPuts.Load(),
	}
	p.global.mu.Lock()
	s.GlobalPages = int64(len(p.global.pages))
	p.global.mu.Unlock()
	for _, lp := range p.locals {
		lp.mu.Lock()
		s.LocalPages += int64(len(lp.pages))
		lp.mu.Unlock()
	}
	return s
}

func (p *Pool[T]) local(worker int) *localPool[T] {
	if worker < 0 {
		worker = 0
	}
	return p.locals[worker%len(p.locals)]
}
