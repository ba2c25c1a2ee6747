package core

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/pagepool"
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

// MM is the memory-mapping reducer engine (the paper's Cilk-M mechanism).
// Registration, the runtime it serves and the counts are its Base's.
type MM struct {
	Base
	// pool recycles public SPA pages used for view transferal.
	pool *pagepool.Pool[*spa.Map]

	// model is MMConfig.ModelAddressSpace: first touches of a page index
	// go through mmWorker.ensureMapped.
	model bool

	// arenaRootReleased counts arena-carved view blocks released on
	// non-worker goroutines (the root merge and root-side discards), where
	// no arena is available to recycle into: the blocks fall to the garbage
	// collector, and this counter closes the arena live-view accounting —
	// live = Σ(allocs − frees) − arenaRootReleased, zero at quiescence.
	arenaRootReleased atomic.Int64
}

// mmWorker is the per-worker state of the memory-mapping engine: the
// worker's private SPA maps (its TLMM reducer area), the worker's view
// arena, and, when the address space is modelled, the set of SPA page
// indices it has mapped.
type mmWorker struct {
	private *spa.MapSet
	// spares holds emptied map sets for reuse by the next BeginTrace, last
	// in first out.  EndTrace pushes the set it empties, so a worker that
	// has nested traces n deep at stalled joins keeps n sets, up to
	// maxSpareSets, and its next nested traces build none.
	spares []*spa.MapSet
	// arena carves identity views for arena-eligible monoids and recycles
	// the views the hypermerge folds away.  Owner-goroutine only.
	arena viewArena
	// mapped[i] reports whether this worker has mapped SPA page index i, and
	// nmapped counts the set bits (both stay zero unless ModelAddressSpace).
	mapped  []bool
	nmapped int
	// tally counts everything since the worker's last flush into
	// Base.Totals.  Owner-goroutine only.
	tally metrics.Tally
}

// freeSlotView recycles a dead slot's view block into this worker's arena.
// Only arena-flagged slots are recycled: the flag certifies that the view
// word is a class-sized block some worker's arena carved for the slot's
// owner, so the owner's class sizes it correctly.  Heap-backed views are
// left to the garbage collector.
func (ws *mmWorker) freeSlotView(s spa.Slot) {
	if !s.Arena() {
		return
	}
	r := reducerOf(s.Owner())
	ws.arena.free(int(r.monoid.arenaClass), s.View(), &ws.tally.Arena)
}

// dropPrivateViews discards every view in the worker's current private map
// set without merging it anywhere: arena blocks recycle into this worker's
// arena, heap views fall to the garbage collector.  It is the abort-path
// counterpart of view transferal — the trace's updates are already lost,
// so only the resource accounting matters.
func (ws *mmWorker) dropPrivateViews() {
	for pi := 0; pi < ws.private.Pages(); pi++ {
		p := ws.private.Page(pi)
		p.Range(func(si int, s spa.Slot) bool {
			p.Remove(si)
			ws.freeSlotView(s)
			return true
		})
	}
}

// maxSpareSets caps a worker's spares stack.  An emptied set keeps every
// page its traces touched, and the worker holds its spares for life, so
// without a cap one deep nesting (a recursion that stalls at a join on
// every level) would pin a set per level for good.  Eight covers the
// nesting a W = 1 ParallelFor of 128 iterations reaches with every fork
// forced; a set emptied past the cap goes to the collector.
const maxSpareSets = 8

// restoreOuterTrace swaps the (now empty) private map set for the suspended
// outer trace's maps, saved (the trace token), as every EndTrace ends; the
// emptied set goes on the spares stack unless the stack is full.
func (ws *mmWorker) restoreOuterTrace(saved *spa.MapSet) {
	if saved != nil {
		if len(ws.spares) < maxSpareSets {
			ws.spares = append(ws.spares, ws.private)
		}
		ws.private = saved
	}
}

// MMDeposit is the result of view transferal: the trace's own SPA pages,
// handed over with the views in place, indexed by SPA page index.  The
// pages keep the log they grew as private pages, so it may have overflowed
// or name one index twice; see spa.Map.Range for what that asks of a walk.
type MMDeposit struct {
	// pages is nil once the deposit has been consumed.
	pages []*spa.Map
}

// NewMM creates a memory-mapping engine.
func NewMM(cfg MMConfig) *MM {
	e := &MM{model: cfg.ModelAddressSpace}
	var onGrow func(page int) error
	if e.model {
		onGrow = growReducerPage
	}
	InitBase(&e.Base, e, "mm", cfg.Workers, cfg.Timing, onGrow)
	e.pool = pagepool.New[*spa.Map](e.Workers(),
		func() *spa.Map { return spa.New() },
		pagepool.WithEmptyCheck[*spa.Map](func(m *spa.Map) bool { return m.IsEmpty() }),
	)
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

// PoolStats exposes the public SPA page pool statistics.
func (e *MM) PoolStats() pagepool.Stats { return e.pool.Stats() }

// --- Engine lookup ---

// LookupWord implements Engine.  The hit is the paper's two memory accesses
// and a predictable branch:
//
//	worker   := c.Worker()                    // one field load
//	private  := worker.Local().(*mmWorker)    // one load + type check
//	slot     := private.Probe(r.page, r.slot) // bounds check + 2 indexed loads
//	hit      := slot.FastHit(r, mutable)      // 1 masked compare
//
// The reducer's (page, slot) pair is precomputed at registration
// (SlotsPerMap is not a power of two, so Addr.Page/Addr.Slot each cost an
// integer division) and every helper on the path is small enough for the
// compiler to inline — `make inline-check` pins that.  The owner stamp in
// the slot's second word guarantees a recycled address never serves a stale
// view, so the hit is independent of the number of live reducers.
// Everything else — first touches, recycled slots, retired handles — is
// outlined into lookupMiss so the hot shape stays branch-predictable.  The
// typed handles call this method on the concrete *MM (no interface
// dispatch); everyone else reaches it through Engine.
//
//cilkvet:hotpath
func (e *MM) LookupWord(c *sched.Context, r *Reducer, _ uint64, mutable bool) (unsafe.Pointer, bool) {
	if c != nil {
		w := c.Worker()
		ws, ok := w.Local().(*mmWorker)
		if !ok {
			panic(ErrForeignRuntime)
		}
		if s := ws.private.Probe(int(r.page), int(r.slot)); s.FastHit(ownerWord(r), mutable) {
			ws.tally.Lookups.Hits++
			return s.View(), true
		}
		return e.lookupMiss(w, ws, r, mutable)
	}
	return r.LeftmostView(), false
}

// lookupMiss is the outlined slow half of LookupWord.  A worker of a runtime
// the engine does not serve is trapped first (ErrForeignRuntime): its maps
// are another engine's.  An owned slot always hits in LookupWord, so the
// slot here is empty or a retired occupant's.  A retired handle without a
// private view is served the frozen leftmost value, uncacheable.  A
// read-only lookup of a reducer whose identity is the zero value is served
// the trace's zero block (spa.ZeroBlock): the view it would create still
// equals the identity, so none is created, and the first mutable access
// creates it.  Anything else installs an identity view.
//
//cilkvet:hotpath
func (e *MM) lookupMiss(w *sched.Worker, ws *mmWorker, r *Reducer, mutable bool) (unsafe.Pointer, bool) {
	if w.Runtime() != e.Runtime() {
		panic(ErrForeignRuntime)
	}
	ws.tally.Lookups.Misses++
	ws.tally.Lookups.ColdMisses++
	if !e.Dir.Valid(r) {
		return r.LeftmostView(), false
	}
	if ws.private.Probe(int(r.page), int(r.slot)).View() != nil {
		// Occupied by another owner: the occupant registered an earlier
		// incarnation of this recycled address.  The directory holds at
		// most one live registration per address — r — so the occupant is
		// retired and its in-flight view is dropped (and its arena block
		// recycled, likely into r's view below).  The bump retires every
		// handle cache that still points at the dropped view.
		if old, err := ws.private.Remove(r.addr); err == nil {
			ws.freeSlotView(old)
			ws.tally.Merge.StaleViewDrops++
			w.BumpViewEpoch()
		}
	}
	if r.monoid.zeroIdentity {
		if !mutable {
			return ws.private.Zero.Lend(), true
		}
		if ws.private.Zero.Lent() {
			// A handle cache of this worker may still map r to the zero
			// block; the bump sends its next lookup to the view created
			// below.
			w.BumpViewEpoch()
		}
	}
	return e.lookupSlow(ws, r), true
}

// lookupSlow creates and installs an identity view in r's (empty) private
// slot: it runs at most once per reducer per steal, plus once per slot
// recycle.  Arena-eligible monoids get their view carved out of the
// worker's view arena — a free-list pop or a bump allocation, no heap
// allocator — and the slot's arena flag records that the block is
// recyclable when the view dies.  A read-only first lookup of a view type
// the zero block does not serve creates its view here too, and the view is
// deposited and reduced like any other.
//
//cilkvet:hotpath
func (e *MM) lookupSlow(ws *mmWorker, r *Reducer) unsafe.Pointer {
	// Ensure the worker's TLMM region maps the SPA page holding this slot.
	if e.model {
		ws.ensureMapped(int(r.page))
	}
	// Chaos point for a monoid whose Identity blows up: fired before any
	// slot state is written, so a contained identity panic leaves the
	// worker's maps exactly as they were.
	faultinject.Check(faultinject.MonoidIdentity)
	var word unsafe.Pointer
	var flags uintptr
	start := metrics.Start(e.Timing)
	if class := r.monoid.arenaClass; class >= 0 {
		word = ws.arena.alloc(int(class), &ws.tally.Arena)
		r.monoid.seed(word)
		flags = spa.FlagArena
	} else {
		word = r.IdentityView()
		ws.tally.Arena.HeapViews++
	}
	ws.tally.Overhead.Tick(metrics.ViewCreation, start)

	start = metrics.Start(e.Timing)
	// The slot's second word is the owner stamp (the reducer handle, which
	// carries the monoid), not the bare monoid: see LookupWord.
	if err := ws.private.Insert(r.addr, word, ownerWord(r), flags); err != nil {
		// lookupMiss cleared any stale occupant, so an occupied slot here
		// is a programming error.
		panic(fmt.Sprintf("core: SPA slot %d unexpectedly occupied: %v", r.addr, err))
	}
	ws.tally.Overhead.Tick(metrics.ViewInsertion, start)
	return word
}

// ensureMapped maps SPA page index pi into this worker's modelled TLMM
// region, once: the first touch sets the page's bit and counts one mapping,
// in the paper's accounting one sys_palloc plus one sys_pmap.  The bitmap
// grows to the target length in one step (with doubling, so registration
// churn that walks page indices upward costs amortised O(1) per page, not
// one append per missing index).
func (ws *mmWorker) ensureMapped(pi int) {
	if len(ws.mapped) <= pi {
		n := pi + 1
		if n < 2*len(ws.mapped) {
			n = 2 * len(ws.mapped)
		}
		grown := make([]bool, n)
		copy(grown, ws.mapped)
		ws.mapped = grown
	}
	if !ws.mapped[pi] {
		ws.mapped[pi] = true
		ws.nmapped++
	}
}

// --- sched.ReducerRuntime hooks ---

// WorkerInit implements sched.ReducerRuntime.  It runs once per worker
// while the runtime the engine serves is being constructed, before any of
// that runtime's tasks execute.
func (e *MM) WorkerInit(w *sched.Worker) {
	e.Base.WorkerInit(w)
	w.SetLocal(&mmWorker{private: spa.NewMapSet()})
}

// BeginTrace implements sched.ReducerRuntime.  The new trace starts with an
// empty set of private SPA maps, the last one an EndTrace emptied if there
// is one.  Because a worker that stalls at a join helps by executing other
// stolen tasks, traces nest: the previous trace's maps (non-empty when the
// worker is helping at a stalled join) are the trace token itself, which
// EndTrace restores.
func (e *MM) BeginTrace(w *sched.Worker) sched.Trace {
	ws := w.Local().(*mmWorker)
	saved := ws.private
	if n := len(ws.spares); n > 0 {
		ws.private, ws.spares = ws.spares[n-1], ws.spares[:n-1]
	} else {
		ws.private = spa.NewMapSet()
	}
	w.BumpViewEpoch()
	return saved
}

// EndTrace implements sched.ReducerRuntime: view transferal.  It first
// reclaims the trace's zero block: one found written (a write through a
// read-only view) fails the trace with ErrReadViewWritten, its views dropped
// as on a failed transferal.  Every view the trace created is deposited,
// whether it was reached mutably or read-only; a trace that created none
// deposits nothing and performs no pagepool round-trip at all.  Transferal
// itself is the paper's remapping strategy: the trace's pages, views in
// place, are swapped for as many empty pages fetched from the pool in one
// bulk round-trip and become the deposit — one pointer swap per page,
// nothing per view.  The pool counts pages out and in, not where a page was
// born, so pages that started life on the heap in a private set enter it on
// the deposit's release and Outstanding stays exact.  Finally the suspended
// outer trace's maps are restored.
func (e *MM) EndTrace(w *sched.Worker, tr sched.Trace) sched.Deposit {
	ws := w.Local().(*mmWorker)
	saved, _ := tr.(*spa.MapSet)
	if ws.private.Zero.Reclaim() {
		e.abortTrace(w, ws, saved)
		panic(ErrReadViewWritten)
	}
	var dep *MMDeposit
	if span := ws.private.OccupiedPageSpan(); span > 0 {
		start := metrics.Start(e.Timing)
		pages, err := e.pool.TryGetN(w.ID(), span)
		if err == nil {
			// Chaos point for transferal failing after the page fetch: the
			// abort path below must hand the fetched pages straight back.
			if ferr := faultinject.Error(faultinject.EndTraceTransfer); ferr != nil {
				e.pool.PutN(w.ID(), pages)
				err = ferr
			}
		}
		if err != nil {
			// Page exhaustion (or an injected fault) mid-transferal: the
			// trace's updates cannot be deposited, so the only sound exit is
			// to drop them and unwind.
			e.abortTrace(w, ws, saved)
			panic(fmt.Errorf("core: view transferal: %w", err))
		}
		ws.private.SwapPages(pages)
		ws.tally.Merge.BulkPageFetches++
		ws.tally.Overhead.Tick(metrics.ViewTransferal, start)
		dep = &MMDeposit{pages: pages}
	}
	e.Totals.Flush(&ws.tally)
	// The now-empty map set goes on the spares stack for the next trace.
	ws.restoreOuterTrace(saved)
	w.BumpViewEpoch()
	if dep == nil {
		return nil
	}
	return dep
}

// abortTrace is the end of a trace whose views cannot be deposited: every
// private view recycles into this worker's arena, the tally is flushed and
// the suspended outer trace's maps come back, so the caller may panic with
// the trace's failure, which the scheduler contains at the job boundary
// without ending this trace again.
func (e *MM) abortTrace(w *sched.Worker, ws *mmWorker, saved *spa.MapSet) {
	ws.dropPrivateViews()
	e.Totals.Flush(&ws.tally)
	ws.restoreOuterTrace(saved)
	w.BumpViewEpoch()
}

// releaseDeposit is the one end of every deposit: whatever is still in
// its pages dies unmerged, the pages go back to the pool in one bulk
// round-trip, and the deposit is marked consumed.  Merge and
// MergeRootDeposit take a slot out of its page the moment its view is
// consumed, so after a completed merge nothing is left to free, and after
// one that panicked exactly the views nobody consumed are — this walk is
// the whole recovery path, and it takes each slot out as it frees it like
// every other deposit walk (spa.Map.Range says why).  On a worker the dead
// arena blocks recycle into that worker's arena (cross-arena frees are
// legal: blocks are not returned to the chunk they were carved from); with
// no worker (ws nil) the blocks fall to the garbage collector and
// arenaRootReleased counts them out of the arena accounting.  The release
// counts into t — the worker's tally, or the off-worker caller's own — and
// flushes it.
func (e *MM) releaseDeposit(ws *mmWorker, t *metrics.Tally, wid int, dep *MMDeposit) {
	released := int64(0)
	for _, p := range dep.pages {
		p.Range(func(si int, s spa.Slot) bool {
			p.Remove(si)
			if ws != nil {
				ws.freeSlotView(s)
			} else if s.Arena() {
				released++
			}
			return true
		})
	}
	if released > 0 {
		e.arenaRootReleased.Add(released)
	}
	e.pool.PutN(wid, dep.pages)
	t.Merge.BulkPageReturns++
	dep.pages = nil
	e.Totals.Flush(t)
}

// Merge implements sched.ReducerRuntime: the hypermerge.  It is one walk
// over the deposit's occupied slots, page by page against the current
// trace's page of the same index, that settles each slot where it stands:
//
//   - a view with no current counterpart is adopted: the slot moves into the
//     current trace's maps, flags preserved;
//   - where the two owner stamps differ the address was recycled while one
//     view was in flight, and the stale side is dropped;
//   - a matched pair is reduced right there, current ⊗ deposited, the
//     serially-earlier view on the left, and the views the reduce killed go
//     back to this worker's arena.
//
// A slot leaves its deposit page only once its view has been consumed —
// adopted, folded into the current view, or freed — and no step that can
// panic runs between the consumption and the removal.  So whenever a Reduce
// panics (a buggy or fault-injected monoid), the deposit holds exactly the
// deposited views nobody owns yet; the deferred releaseDeposit frees them,
// returns the pages, and the panic unwinds to the job boundary.  The current
// trace may then hold a partial merge: the job is aborting, and the trace's
// views are discarded at the recovery point.
func (e *MM) Merge(w *sched.Worker, tr sched.Trace, d sched.Deposit) {
	dep, _ := d.(*MMDeposit)
	if dep == nil || dep.pages == nil {
		return
	}
	ws := w.Local().(*mmWorker)
	e.MergeInflight.Add(1)
	defer e.MergeInflight.Add(-1)
	defer func() {
		e.releaseDeposit(ws, &ws.tally, w.ID(), dep)
		w.BumpViewEpoch()
	}()
	start := metrics.Start(e.Timing)
	cur := ws.private
	var reduces, adopts, staleDrops int64
	for pi, dp := range dep.pages {
		// curPage is resolved once per page.  An adopt below may create the
		// page in cur after this lookup returned nil; the cached nil stays
		// correct for the rest of this page's slots — a just-created page
		// holds only slots this loop adopted, and each slot index is
		// visited exactly once.
		curPage := cur.Page(pi)
		dp.Range(func(si int, s spa.Slot) bool {
			var curSlot spa.Slot
			if curPage != nil {
				curSlot = curPage.SlotAt(si)
			}
			if curSlot.View() != nil {
				owner := reducerOf(s.Owner())
				if curSlot.Owner() == s.Owner() {
					e.reduceSlot(ws, owner, curPage, dp, si, curSlot, s)
					reduces++
					return true
				}
				// The directory holds at most one live registration per
				// address, so at most one side can still be valid.
				staleDrops++
				if !e.Dir.Valid(owner) {
					dp.Remove(si)
					ws.freeSlotView(s)
					return true
				}
				curPage.Remove(si)
				ws.freeSlotView(curSlot)
				// Fall through to adopt the deposited (live) view.
			}
			if e.model {
				ws.ensureMapped(pi)
			}
			if err := cur.InsertSlot(spa.MakeAddr(pi, si), s); err != nil {
				panic(fmt.Sprintf("core: hypermerge insert: %v", err))
			}
			dp.Remove(si)
			adopts++
			return true
		})
	}
	t := &ws.tally
	t.Overhead.Tick(metrics.Hypermerge, start)
	if reduces > 1 {
		t.Overhead.TickN(metrics.Hypermerge, reduces-1)
	}
	t.Overhead.TickN(metrics.ViewInsertion, adopts)
	t.Merge.Merges++
	t.Merge.SlotsMerged += reduces + adopts
	t.Merge.Reduces += reduces
	t.Merge.Adopts += adopts
	t.Merge.StaleViewDrops += staleDrops
}

// reduceSlot folds one deposited view into the current trace's slot of the
// same index: cur ⊗ dep, the monoid's kernel called on the two slot words.
// The deposited slot is removed from its page as soon as Reduce has
// returned — before that its view is still the deposit's to free.
func (e *MM) reduceSlot(ws *mmWorker, owner *Reducer, curPage, depPage *spa.Map, si int, cur, dep spa.Slot) {
	// Chaos point for a monoid whose Reduce blows up mid-hypermerge: fired
	// before either slot is touched.
	faultinject.Check(faultinject.MonoidReduce)
	combined := owner.ReduceViews(cur.View(), dep.View())
	switch combined {
	case cur.View():
		// The usual in-place reduction: the current view survives and the
		// deposited view dies.
		depPage.Remove(si)
		ws.freeSlotView(dep)
	case dep.View():
		// The monoid returned its right argument: the deposited view (flags
		// included) replaces the current one, which dies.
		if err := curPage.Update(si, combined, dep.Flags()); err != nil {
			panic(fmt.Sprintf("core: hypermerge update: %v", err))
		}
		depPage.Remove(si)
		ws.freeSlotView(cur)
	default:
		// A fresh combined view of unknown provenance: no arena flag, and
		// both inputs die.
		if err := curPage.Update(si, combined, 0); err != nil {
			panic(fmt.Sprintf("core: hypermerge update: %v", err))
		}
		depPage.Remove(si)
		ws.freeSlotView(cur)
		ws.freeSlotView(dep)
	}
}

// MergeRootDeposit implements sched.ReducerRuntime: the views produced by
// the root trace are folded into the reducers' leftmost views in serial
// order.  The walk runs under the engine's leftmost lock, taken once for
// the whole deposit (Base.Absorb), and folds each view with a bare Reduce.
// The owner stamp carried by every deposited slot resolves the reducer
// directly — no registry copy — and the reducer's validity flag drops
// views whose reducer was unregistered while they were in flight, even if
// the address has since been recycled.  Whatever happens to a view —
// absorbed or dropped stale — its arena block is not recycled:
// MergeRootDeposit is handed no worker, so it frees into no arena; the
// block goes to the garbage collector and arenaRootReleased closes the
// books on it.  The walk counts into a tally of its own and
// flushes it once, in the deferred tail, so a panicking Reduce still
// leaves Quiescent balanced (Absorb has released the lock by then).
func (e *MM) MergeRootDeposit(d sched.Deposit) {
	dep, _ := d.(*MMDeposit)
	if dep == nil || dep.pages == nil {
		return
	}
	e.MergeInflight.Add(1)
	var t metrics.Tally
	var released int64
	defer func() {
		e.arenaRootReleased.Add(released)
		e.releaseDeposit(nil, &t, 0, dep)
		e.MergeInflight.Add(-1)
	}()
	e.Absorb(func(fold func(*Reducer, unsafe.Pointer)) {
		for _, dp := range dep.pages {
			dp.Range(func(si int, s spa.Slot) bool {
				dp.Remove(si)
				if s.Arena() {
					released++
				}
				owner := reducerOf(s.Owner())
				if !e.Dir.Valid(owner) {
					// The reducer was unregistered while views for it were
					// still in flight; fold into nothing (drop), mirroring a
					// view whose reducer went out of scope.
					t.Merge.StaleViewDrops++
					return true
				}
				fold(owner, s.View())
				return true
			})
		}
	})
}

// Discard implements sched.ReducerRuntime: release the resources held by a
// deposit that will never be merged — the containment path for a job that
// panicked or was cancelled between a trace's EndTrace and its join or its
// root merge.  Arena-carved views recycle into the discarding worker's
// arena.  A nil or already-consumed deposit is a no-op, so Discard is safe
// to call on both sides of a racing settle.
func (e *MM) Discard(w *sched.Worker, d sched.Deposit) {
	dep, _ := d.(*MMDeposit)
	if dep == nil || dep.pages == nil {
		return
	}
	ws := w.Local().(*mmWorker)
	e.releaseDeposit(ws, &ws.tally, w.ID(), dep)
}

// Quiescent implements sched.ReducerRuntime: verify that no job left
// resources in flight.  It must only be called while no job is running
// (Runtime.Quiescent calls it between jobs); the checks read owner-local
// counters that are unsynchronised by design.  The invariants checked are
// exactly the ones failure containment promises to restore: no hypermerge still
// executing, every pagepool page back in the pool, no worker holding
// private views, and every arena block either on a free list or accounted
// to a root-side release.
func (e *MM) Quiescent() error {
	if n := e.MergeInflight.Load(); n != 0 {
		return fmt.Errorf("core: %d hypermerges still in flight", n)
	}
	if out := e.pool.Stats().Outstanding(); out != 0 {
		return fmt.Errorf("core: %d pagepool pages outstanding", out)
	}
	for i := range e.Workers() {
		if n := e.WorkerPrivateViews(i); n != 0 {
			return fmt.Errorf("core: worker %d holds %d private views", i, n)
		}
	}
	ar := e.ArenaStats()
	if live := ar.Allocs - ar.Frees - e.arenaRootReleased.Load(); live != 0 {
		return fmt.Errorf("core: %d arena view blocks live (allocs=%d frees=%d rootReleased=%d)",
			live, ar.Allocs, ar.Frees, e.arenaRootReleased.Load())
	}
	return nil
}

// --- instrumentation ---

// worker returns the state of worker i of the runtime the engine serves,
// or nil.
func (e *MM) worker(i int) *mmWorker {
	rt := e.Runtime()
	if rt == nil || i < 0 || i >= rt.Workers() {
		return nil
	}
	return rt.Worker(i).Local().(*mmWorker)
}

// WorkerPrivateViews reports the number of views currently held in worker
// i's private SPA maps (diagnostic; it should be zero between runs).
func (e *MM) WorkerPrivateViews(i int) int {
	if ws := e.worker(i); ws != nil {
		return ws.private.Len()
	}
	return 0
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
