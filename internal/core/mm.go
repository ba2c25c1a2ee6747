package core

import (
	"fmt"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/sched"
	"repro/internal/spa"
)

// MMConfig configures the memory-mapping engine.
type MMConfig struct {
	// Workers sizes the per-worker structures: the runtime the engine
	// serves may have at most this many workers.
	Workers int
	// Timing enables duration measurement in the overhead instrumentation.
	Timing bool
	// ModelAddressSpace, when true, models the paper's kernel support
	// (sys_palloc/sys_pmap) at the granularity the engine observes it: each
	// worker maps an SPA page index the first time it touches it, once, and
	// counts the mapping (WorkerMappedPages), and growing the reducer region
	// for a fresh SPA page may fail (the tlmm/grow failpoint), failing that
	// registration.  Disable it for the tightest possible first lookup.
	ModelAddressSpace bool
}

// MM is the memory-mapping reducer engine (the paper's Cilk-M mechanism):
// the Skeleton around a worker's private SPA map set.
type MM struct {
	Skeleton[*mapStore, *spa.Map]
}

// MMDeposit is the memory-mapped engine's deposit: the trace's own SPA
// pages, indexed by SPA page index.
type MMDeposit = Deposit[*spa.Map]

// NewMM creates a memory-mapping engine.
func NewMM(cfg MMConfig) *MM {
	e := &MM{}
	InitSkeleton(&e.Skeleton, e, "mm", cfg.Workers, cfg.Timing,
		func() *mapStore { return &mapStore{} }, spa.New, releaseMaps)
	if cfg.ModelAddressSpace {
		e.model, e.Dir.onGrow = true, growReducerPage
	}
	return e
}

// growReducerPage is the directory's OnGrow hook under ModelAddressSpace,
// called under its lock once per fresh SPA page: where the paper reserves
// TLMM address space for the page.  Page i's base address would be a fixed
// function of i and DirectoryStats().GrownPages counts the reserved pages,
// so what remains to model is that the reservation can fail.  Growth moves
// no view, so it bumps no view epoch.
func growReducerPage(page int) error {
	if err := faultinject.Error(faultinject.TLMMGrow); err != nil {
		// Injected address-space exhaustion: the registration that
		// triggered the growth fails cleanly and the directory keeps the
		// address unused.
		return fmt.Errorf("core: reserving TLMM page %d: %w", page, err)
	}
	return nil
}

// Name implements Engine.
func (e *MM) Name() string { return "Cilk-M (memory-mapped)" }

// LookupWord implements Engine.  The hit is the paper's two memory accesses
// and a predictable branch:
//
//	worker   := c.Worker()                           // one field load
//	private  := worker.Local().(*Worker[*mapStore])  // one load + type check
//	slot     := private.Store.Probe(r.page, r.slot)  // bounds check + 2 indexed loads
//	hit      := slot.FastHit(r, mutable)             // 1 masked compare
//
// The reducer's (page, slot) pair is precomputed at registration
// (SlotsPerMap is not a power of two, so Addr.Page/Addr.Slot each cost an
// integer division) and every helper on the path is small enough for the
// compiler to inline — `make inline-check` pins that.  The owner stamp in
// the slot's second word guarantees a recycled address never serves a stale
// view, so the hit is independent of the number of live reducers.
// Everything else — first touches, recycled slots, retired handles — is
// outlined into the skeleton's LookupMiss so the hot shape stays
// branch-predictable.  The typed handles call this method on the concrete
// *MM (no interface dispatch); everyone else reaches it through Engine.
//
//cilkvet:hotpath
func (e *MM) LookupWord(c *sched.Context, r *Reducer, _ uint64, mutable bool) (unsafe.Pointer, bool) {
	if c != nil {
		w := c.Worker()
		ws, ok := w.Local().(*Worker[*mapStore])
		if !ok {
			panic(ErrForeignRuntime)
		}
		s := ws.Store.Probe(int(r.page), int(r.slot))
		if s.FastHit(ownerWord(r), mutable) {
			ws.Tally.Lookups.Hits++
			return s.View(), true
		}
		// An owned slot always hits, so the probe is the miss path's answer.
		return e.LookupMiss(w, ws, r, s, mutable)
	}
	return r.LeftmostView(), false
}

// mapStore is the memory-mapped engine's Store: a worker's private SPA
// maps (its TLMM reducer area) for one trace, addressed by the reducers'
// precomputed (page, slot) pairs.  Its pages are the deposit pages, and the
// map set's Len and SwapPages serve the Store as they are.
type mapStore struct{ spa.MapSet }

func (st *mapStore) Zero() *spa.ZeroBlock          { return &st.MapSet.Zero }
func (st *mapStore) Insert(r *Reducer, s spa.Slot) { st.Put(int(r.page), int(r.slot), s) }
func (st *mapStore) Remove(r *Reducer)             { _, _ = st.MapSet.Remove(r.addr) }
func (st *mapStore) Span() int                     { return st.OccupiedPageSpan() }

// Merge implements Store: one walk over the deposit's occupied slots, page
// by page against the current trace's page of the same index.
func (st *mapStore) Merge(v *Views, pages []*spa.Map) {
	for pi, dp := range pages {
		dp.Range(func(si int, s spa.Slot) bool {
			cur := st.Probe(pi, si)
			if kept := v.Pair(cur, s); kept != cur {
				st.Put(pi, si, kept)
				v.touch(pi)
			}
			dp.Remove(si)
			return true
		})
	}
}

func (st *mapStore) Drop(v *Views) {
	for pi := range st.Pages() {
		releaseMap(v, st.Page(pi))
	}
}

// releaseMaps is the engine's deposit walk (Skeleton.release).
func releaseMaps(v *Views, pages []*spa.Map) {
	for _, p := range pages {
		releaseMap(v, p)
	}
}

// releaseMap takes every slot out of p and settles it.  It takes each slot
// out as it visits it, like every other deposit walk (spa.Map.Range says
// why).
func releaseMap(v *Views, p *spa.Map) {
	p.Range(func(si int, s spa.Slot) bool {
		p.Remove(si)
		v.Settle(s)
		return true
	})
}

// touch maps SPA page index pi into the worker's modelled TLMM region when
// the address space is modelled (mapPage); it inlines into the first
// lookup and the merge.
func (v *Views) touch(pi int) {
	if v.model {
		v.mapPage(pi)
	}
}

// mapPage maps SPA page index pi, once: the first touch sets the page's bit
// and counts one mapping, in the paper's accounting one sys_palloc plus one
// sys_pmap.  The bitmap grows to the target length in one step (with
// doubling, so registration churn that walks page indices upward costs
// amortised O(1) per page, not one append per missing index).
func (v *Views) mapPage(pi int) {
	if len(v.mapped) <= pi {
		n := pi + 1
		if n < 2*len(v.mapped) {
			n = 2 * len(v.mapped)
		}
		grown := make([]bool, n)
		copy(grown, v.mapped)
		v.mapped = grown
	}
	if !v.mapped[pi] {
		v.mapped[pi] = true
		v.nmapped++
	}
}

// WorkerMappedPages reports how many SPA page indexes worker i has mapped
// into its modelled TLMM region (diagnostic; zero unless ModelAddressSpace,
// and read like WorkerPrivateViews, between runs).  Each worker maps each
// page it touches exactly once, so it is the number of distinct pages the
// worker has touched, no matter how registration churn interleaves with
// growth.
func (e *MM) WorkerMappedPages(i int) int {
	if ws := e.worker(i); ws != nil {
		return ws.nmapped
	}
	return 0
}

var _ Engine = (*MM)(nil)
