package core

import (
	"fmt"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/pagepool"
	"repro/internal/sched"
	"repro/internal/spa"
)

// This file is the half of a reducer engine that is not its lookup
// structure, written once for both mechanisms.  An engine brings a view
// store (Store) and its LookupWord, whose hit probes the store inline.  The
// skeleton calls the store once per lookup miss, trace or deposit, never
// once per view: the walks over a deposit's views live in each store and
// call the concrete per-view helpers Views.Pair and Views.Settle, because on
// go1.24 a method call on a type parameter is an indirect call through the
// generic dictionary even when every store is a pointer.

// Store is one trace's views, the part of an engine that is its mechanism:
// the memory-mapped engine's SPA map set (mapStore, mm.go) or the
// hypermap's chained hash table.  Entries are spa.Slot-shaped — a view word
// and an owner stamp carrying the slot flags — keyed by the owner's
// address.  P is the unit view transferal hands over in a deposit and the
// engine's page pool recycles.  Methods run on the owning worker only.
type Store[P Page] interface {
	Zero() *spa.ZeroBlock          // the trace's zero block
	Insert(r *Reducer, s spa.Slot) // at r's address, which holds no entry
	Remove(r *Reducer)             // the entry at r's address
	Len() int                      // the number of entries
	Span() int                     // the pages a deposit of every entry needs
	// SwapPages exchanges the store's leading len(pages) pages with pages,
	// which are empty: afterwards pages holds the trace's entries.
	SwapPages(pages []P)
	// Merge stores, for each entry of pages, what v.Pair returns at the
	// entry's address, and then takes the entry out of its page.
	Merge(v *Views, pages []P)
	// Drop takes every entry out and settles it through v.Settle.
	Drop(v *Views)
}

// Page is the unit of a deposit: an SPA map page or a whole hash table.
type Page interface {
	// Len returns the number of entries the page holds.
	Len() int
}

// Skeleton is a reducer engine around its view store S: the Base, the page
// pool deposits come from, and every sched.ReducerRuntime hook.  An engine
// embeds it and adds its Name and its LookupWord.
type Skeleton[S Store[P], P Page] struct {
	Base

	pool *pagepool.Pool[P]
	// newStore makes an empty store, for a worker or a nested trace when
	// the worker has no spare.
	newStore func() S
	// release takes every entry out of pages and settles it through
	// v.Settle: the walk of a deposit that ends unmerged, or of the root
	// merge.
	release func(v *Views, pages []P)
	// model is MMConfig.ModelAddressSpace; it stays false on the hypermap.
	model bool
	// root is the Views of the root merges, which run on no worker; they
	// use it only under the engine's leftmost lock.
	root Views
}

// InitSkeleton sets up e, embedded by value in engine self so the per-view
// paths reach Dir and Timing with no extra load, sized for workers workers
// (at least one) and exporting under the engine label label.  newStore
// makes the engine's stores, newPage the deposit pages its pool hands out
// when it holds none, and release is its deposit walk (Skeleton.release).
func InitSkeleton[S Store[P], P Page](e *Skeleton[S, P], self Engine, label string, workers int, timing bool,
	newStore func() S, newPage func() P, release func(v *Views, pages []P)) {
	b := &e.Base
	b.Dir, b.Timing, b.self, b.label = NewDirectory(nil), timing, self, label
	b.workers = max(workers, 1)
	e.newStore, e.release = newStore, release
	e.pool = pagepool.New(b.workers, newPage, pagepool.WithEmptyCheck(func(p P) bool { return p.Len() == 0 }))
	e.root = Views{dir: b.Dir, root: true}
}

// Worker is one worker's engine state: the store of the trace the worker
// is executing, the stores nested traces emptied, and the worker's Views.
type Worker[S any] struct {
	// Store holds the current trace's views; the engine's LookupWord
	// probes it.
	Store S
	// spares holds emptied stores for reuse by the next BeginTrace, last
	// in first out.  EndTrace pushes the store it empties, so a worker that
	// has nested traces n deep at stalled joins keeps n stores, up to
	// maxSpareSets, and its next nested traces build none.
	spares []S
	Views
}

// maxSpareSets caps a worker's spares stack.  An emptied store keeps every
// page or bucket its traces grew, and the worker holds its spares for life,
// so without a cap one deep nesting (a recursion that stalls at a join on
// every level) would pin a store per level for good.  Eight covers the
// nesting a W = 1 ParallelFor of 128 iterations reaches with every fork
// forced; a store emptied past the cap goes to the collector.
const maxSpareSets = 8

// Views is the part of a worker's engine state that no store shapes: its
// view arena, its tally, and the counts of the merge walking a deposit into
// its store.  The root merges have one more, owned by no worker (root):
// its dead arena blocks fall to the garbage collector.
type Views struct {
	// arena carves identity views for arena-eligible monoids and recycles
	// the views a merge or a release kills.  Owner-goroutine only.
	arena viewArena
	// dir is the engine's directory, whose validity flags a merge checks.
	dir *Directory
	// root marks the root merges' Views, and fold a root merge folding
	// views into their leftmost views rather than only releasing them.
	root, fold bool
	// reduces, adopts and staleDrops count the merge in progress; they
	// reach Tally only when it completes.  released counts the arena
	// blocks the root merges let go to the garbage collector, which closes
	// the arena's live-view accounting: live = allocs − frees − released.
	reduces, adopts, staleDrops, released int64
	// model is MMConfig.ModelAddressSpace.  mapped[i] reports whether the
	// worker has mapped SPA page index i, and nmapped counts the set bits
	// (both stay zero unless model).
	model   bool
	mapped  []bool
	nmapped int
	// Tally counts everything since the worker's last flush into
	// Base.Totals.  Owner-goroutine only.
	Tally metrics.Tally
}

// WorkerInit implements sched.ReducerRuntime.  It runs once per worker
// while the runtime the engine serves is being constructed, before any of
// that runtime's tasks execute.
func (e *Skeleton[S, P]) WorkerInit(w *sched.Worker) {
	e.Base.WorkerInit(w)
	w.SetLocal(&Worker[S]{Store: e.newStore(), Views: Views{dir: e.Dir, model: e.model}})
}

// --- lookup ---

// LookupMiss is the outlined slow half of both engines' LookupWord, given
// the entry at r's address that the engine's full probe found: r's own, a
// retired occupant's, or the zero Slot.  A worker of a runtime the engine
// does not serve is trapped first (ErrForeignRuntime): its stores are
// another engine's.  r's own entry is served, cacheable: the hypermap's hit
// probes only the head of a bucket chain.  Otherwise a retired handle is
// served the frozen leftmost value, uncacheable; a retired occupant of r's
// recycled address has its view dropped; a read-only lookup of a reducer
// whose identity is the zero value is served the trace's zero block
// (spa.ZeroBlock), uncacheable too, creating nothing; and anything else
// installs an identity view, cacheable.
//
//cilkvet:hotpath
func (e *Skeleton[S, P]) LookupMiss(w *sched.Worker, ws *Worker[S], r *Reducer, s spa.Slot, mutable bool) (unsafe.Pointer, bool) {
	if w.Runtime() != e.Runtime() {
		panic(ErrForeignRuntime)
	}
	ws.Tally.Lookups.Misses++
	if s.FastHit(ownerWord(r), mutable) {
		return s.View(), true
	}
	ws.Tally.Lookups.ColdMisses++
	if !e.Dir.Valid(r) {
		return r.LeftmostView(), false
	}
	if s.View() != nil {
		// Occupied by another owner: the occupant registered an earlier
		// incarnation of this recycled address.  The directory holds at
		// most one live registration per address — r — so the occupant is
		// retired and its in-flight view is dropped (and its arena block
		// recycled, likely into r's view below).  The bump retires every
		// handle cache that still points at the dropped view.
		ws.Store.Remove(r)
		ws.free(s)
		ws.Tally.Merge.StaleViewDrops++
		w.BumpViewEpoch()
	}
	if !mutable && r.monoid.zeroIdentity {
		// The trace does not own the block, so no cache may hold it, and
		// creating r's view after the lend invalidates nothing.
		return ws.Store.Zero().Lend(), false
	}
	s = ws.newView(r, e.Timing)
	start := metrics.Start(e.Timing)
	ws.Store.Insert(r, s)
	ws.Tally.Overhead.Tick(metrics.ViewInsertion, start)
	return s.View(), true
}

// newView creates r's identity view for a first lookup, as the entry its
// store will hold: at most once per reducer per steal, plus once per
// recycled address.  Arena-eligible monoids get their view carved out of
// the worker's view arena — a free-list pop or a bump allocation, no heap
// allocator — and the entry's arena flag records that the block is
// recyclable when the view dies.  The owner stamp is the reducer handle,
// which carries the monoid, not the bare monoid.
//
//cilkvet:hotpath
func (v *Views) newView(r *Reducer, timing bool) spa.Slot {
	// Ensure the worker's TLMM region maps the SPA page holding r's slot.
	v.touch(int(r.page))
	// Chaos point for a monoid whose Identity blows up: fired before any
	// store state is written, so a contained identity panic leaves the
	// worker's store exactly as it was.
	faultinject.Check(faultinject.MonoidIdentity)
	var word unsafe.Pointer
	var flags uintptr
	start := metrics.Start(timing)
	if class := r.monoid.arenaClass; class >= 0 {
		word = v.arena.alloc(int(class), &v.Tally.Arena)
		r.monoid.seed(word)
		flags = spa.FlagArena
	} else {
		word = r.IdentityView()
		v.Tally.Arena.HeapViews++
	}
	v.Tally.Overhead.Tick(metrics.ViewCreation, start)
	return spa.MakeSlot(word, ownerWord(r), flags)
}

// free recycles a dead view's block into the worker's arena.  Only
// arena-flagged entries are recycled: the flag certifies that the view
// word is a class-sized block some worker's arena carved for the entry's
// owner, so the owner's class sizes it correctly (cross-arena frees are
// legal: blocks are not returned to the chunk they were carved from).
// Heap views are left to the garbage collector.
func (v *Views) free(s spa.Slot) {
	if s.Arena() {
		v.arena.free(int(reducerOf(s.Owner()).monoid.arenaClass), s.View(), &v.Tally.Arena)
	}
}

// --- trace lifecycle ---

// BeginTrace implements sched.ReducerRuntime.  The new trace starts with an
// empty store, the last one an EndTrace emptied if there is one.  Because a
// worker that stalls at a join helps by executing other stolen tasks,
// traces nest: the previous trace's store (non-empty when the worker is
// helping at a stalled join) is the trace token itself, which EndTrace
// restores.
func (e *Skeleton[S, P]) BeginTrace(w *sched.Worker) sched.Trace {
	ws := w.Local().(*Worker[S])
	saved := ws.Store
	if n := len(ws.spares); n > 0 {
		ws.Store, ws.spares = ws.spares[n-1], ws.spares[:n-1]
	} else {
		ws.Store = e.newStore()
	}
	w.BumpViewEpoch()
	return saved
}

// EndTrace implements sched.ReducerRuntime: view transferal.  It first
// reclaims the trace's zero block: one found written (a write through a
// read-only view) fails the trace with ErrReadViewWritten, its views
// dropped as on a failed transferal.  Every view the trace created is
// deposited, whether it was reached mutably or read-only; a trace that
// created none deposits nothing and performs no pagepool round-trip at all.
// Transferal itself is the paper's remapping strategy: the trace's pages,
// views in place, are swapped for as many empty pages fetched from the pool
// in one bulk round-trip and become the deposit — one swap per page,
// nothing per view.  The pool counts pages out and in, not where a page was
// born, so pages that started life in a store enter it on the deposit's
// release and Outstanding stays exact.  Finally the suspended outer trace's
// store is restored.
func (e *Skeleton[S, P]) EndTrace(w *sched.Worker, tr sched.Trace) sched.Deposit {
	ws := w.Local().(*Worker[S])
	if ws.Store.Zero().Reclaim() {
		e.abortTrace(w, ws, tr)
		panic(ErrReadViewWritten)
	}
	var dep *Deposit[P]
	if span := ws.Store.Span(); span > 0 {
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
			e.abortTrace(w, ws, tr)
			panic(fmt.Errorf("core: view transferal: %w", err))
		}
		ws.Store.SwapPages(pages)
		ws.Tally.Merge.BulkPageFetches++
		ws.Tally.Overhead.Tick(metrics.ViewTransferal, start)
		dep = &Deposit[P]{pages: pages}
	}
	e.Totals.Flush(&ws.Tally)
	ws.restoreOuterTrace(tr)
	w.BumpViewEpoch()
	if dep == nil {
		return nil
	}
	return dep
}

// abortTrace is the end of a trace whose views cannot be deposited: every
// view in the store recycles into this worker's arena, the tally is flushed
// and the suspended outer trace's store comes back, so the caller may panic
// with the trace's failure, which the scheduler contains at the job
// boundary without ending this trace again.
func (e *Skeleton[S, P]) abortTrace(w *sched.Worker, ws *Worker[S], tr sched.Trace) {
	ws.Store.Drop(&ws.Views)
	e.Totals.Flush(&ws.Tally)
	ws.restoreOuterTrace(tr)
	w.BumpViewEpoch()
}

// restoreOuterTrace swaps the (now empty) store for the suspended outer
// trace's, saved in the trace token, as every EndTrace ends; the emptied
// store goes on the spares stack unless the stack is full.
func (ws *Worker[S]) restoreOuterTrace(tr sched.Trace) {
	if saved, ok := tr.(S); ok {
		if len(ws.spares) < maxSpareSets {
			ws.spares = append(ws.spares, ws.Store)
		}
		ws.Store = saved
	}
}

// --- deposits ---

// Deposit is the result of view transferal: the trace's own pages, handed
// over with the views in place.  An SPA page keeps the log it grew as a
// private page, so it may have overflowed or name one index twice; see
// spa.Map.Range for what that asks of a walk.
type Deposit[P Page] struct {
	// pages is nil once the deposit has been consumed.
	pages []P
}

// Len returns the number of deposited views.
func (d *Deposit[P]) Len() int {
	n := 0
	for _, p := range d.pages {
		n += p.Len()
	}
	return n
}

// releaseDeposit is the one end of every deposit: whatever is still in its
// pages dies unmerged, the pages go back to the pool in one bulk
// round-trip, and the deposit is marked consumed.  The merges take an entry
// out of its page the moment its view is consumed, so after a completed
// merge nothing is left to free, and after one that panicked exactly the
// views nobody consumed are — this walk is the whole recovery path.  The
// release counts into v's tally and flushes it.
func (e *Skeleton[S, P]) releaseDeposit(v *Views, wid int, dep *Deposit[P]) {
	e.release(v, dep.pages)
	e.pool.PutN(wid, dep.pages)
	dep.pages = nil
	v.Tally.Merge.BulkPageReturns++
	e.Totals.Flush(&v.Tally)
}

// Settle ends one view a deposit walk has taken out of its page.  On a
// worker its arena block recycles into the worker's arena.  A root merge
// has no arena: its blocks fall to the garbage collector, counted released
// first, and while it folds, the view is folded into its reducer's
// leftmost view in serial order (leftmost ⊗ view) — or, when its reducer
// was unregistered while the view was in flight, dropped, mirroring a view
// whose reducer went out of scope.  The reducer's validity flag drops such
// a view even if its address has been recycled.
func (v *Views) Settle(s spa.Slot) {
	if !v.root {
		v.free(s)
		return
	}
	if s.Arena() {
		v.released++
	}
	if !v.fold {
		return
	}
	if r := reducerOf(s.Owner()); v.dir.Valid(r) {
		r.fold(s.View())
	} else {
		v.Tally.Merge.StaleViewDrops++
	}
}

// Discard implements sched.ReducerRuntime: release the resources held by a
// deposit that will never be merged — the containment path for a job that
// panicked or was cancelled between a trace's EndTrace and its join or its
// root merge.  Arena-carved views recycle into the discarding worker's
// arena.  A nil or already-consumed deposit is a no-op, so Discard is safe
// to call on both sides of a racing settle.
func (e *Skeleton[S, P]) Discard(w *sched.Worker, d sched.Deposit) {
	dep, _ := d.(*Deposit[P])
	if dep == nil || dep.pages == nil {
		return
	}
	e.releaseDeposit(&w.Local().(*Worker[S]).Views, w.ID(), dep)
}

// --- merges ---

// Merge implements sched.ReducerRuntime: the hypermerge.  It is one walk of
// the deposit by the store, page by page against the current trace's
// store, that settles each deposited view where it stands (Views.Pair):
// adopted where the current store has no entry at its address, reduced
// with a matched entry, or, where the owner stamps differ, the stale side
// dropped.  A view leaves its deposit page only once it has been consumed,
// and no step that can panic runs between the consumption and the removal.
// So whenever a Reduce panics (a buggy or fault-injected monoid), the
// deposit holds exactly the deposited views nobody owns yet; the deferred
// releaseDeposit frees them, returns the pages, and the panic unwinds to
// the job boundary.  The current trace may then hold a partial merge: the
// job is aborting, and the trace's views are discarded at the recovery
// point.
func (e *Skeleton[S, P]) Merge(w *sched.Worker, _ sched.Trace, d sched.Deposit) {
	dep, _ := d.(*Deposit[P])
	if dep == nil || dep.pages == nil {
		return
	}
	ws := w.Local().(*Worker[S])
	e.MergeInflight.Add(1)
	defer e.MergeInflight.Add(-1)
	defer func() {
		e.releaseDeposit(&ws.Views, w.ID(), dep)
		w.BumpViewEpoch()
	}()
	start := metrics.Start(e.Timing)
	v := &ws.Views
	v.reduces, v.adopts, v.staleDrops = 0, 0, 0
	ws.Store.Merge(v, dep.pages)
	t := &v.Tally
	t.Overhead.Tick(metrics.Hypermerge, start)
	if v.reduces > 1 {
		t.Overhead.TickN(metrics.Hypermerge, v.reduces-1)
	}
	t.Overhead.TickN(metrics.ViewInsertion, v.adopts)
	t.Merge.Merges++
	t.Merge.SlotsMerged += v.reduces + v.adopts
	t.Merge.Reduces += v.reduces
	t.Merge.Adopts += v.adopts
	t.Merge.StaleViewDrops += v.staleDrops
}

// Pair settles one deposited entry, dep, against the current store's entry
// at the same address, cur (the zero Slot when there is none), and returns
// the entry the store must hold there afterwards:
//
//   - with no current entry, dep is adopted, flags preserved;
//   - where the two owner stamps differ the address was recycled while one
//     view was in flight, and since the directory holds at most one live
//     registration per address, the stale side is dropped: dep, leaving
//     cur, or cur, adopting dep;
//   - a matched pair is reduced right there, cur ⊗ dep, the serially-earlier
//     view on the left, and the views the reduce killed are freed.
func (v *Views) Pair(cur, dep spa.Slot) spa.Slot {
	if cur.View() == nil {
		v.adopts++
		return dep
	}
	if cur.Owner() != dep.Owner() {
		v.staleDrops++
		if !v.dir.Valid(reducerOf(dep.Owner())) {
			v.free(dep)
			return cur
		}
		v.free(cur)
		v.adopts++
		return dep
	}
	// Chaos point for a monoid whose Reduce blows up mid-hypermerge: fired
	// before either view is touched.
	faultinject.Check(faultinject.MonoidReduce)
	combined := reducerOf(dep.Owner()).ReduceViews(cur.View(), dep.View())
	v.reduces++
	switch combined {
	case cur.View():
		// The usual in-place reduction: the current view survives and the
		// deposited view dies.
		v.free(dep)
		return cur
	case dep.View():
		// The monoid returned its right argument: the deposited view (flags
		// included) replaces the current one, which dies.
		v.free(cur)
		return dep
	default:
		// A fresh combined view of unknown provenance: no arena flag, and
		// both inputs die.
		v.free(cur)
		v.free(dep)
		return spa.MakeSlot(combined, dep.Owner(), 0)
	}
}

// MergeRootDeposit implements sched.ReducerRuntime: the views produced by
// the root trace are folded into the reducers' leftmost views in serial
// order.  The walk is the store's release (Views.Settle folds each view
// with a bare Reduce) under the engine's leftmost lock, taken once for the
// whole deposit (Base.Absorb).  The owner stamp carried by every deposited
// entry resolves the reducer directly — no registry copy.  No worker's
// arena takes the dead blocks: they fall to the garbage collector and
// root.released closes the books on them.  A panicking Reduce stops the
// folding; the deferred release drops the views it left, so Quiescent still
// balances.
func (e *Skeleton[S, P]) MergeRootDeposit(d sched.Deposit) {
	dep, _ := d.(*Deposit[P])
	if dep == nil || dep.pages == nil {
		return
	}
	e.MergeInflight.Add(1)
	defer e.MergeInflight.Add(-1)
	e.Absorb(func() {
		defer func() {
			e.root.fold = false
			e.releaseDeposit(&e.root, 0, dep)
		}()
		e.root.fold = true
		e.release(&e.root, dep.pages)
	})
}

// --- quiescence and instrumentation ---

// Quiescent implements sched.ReducerRuntime: verify that no job left
// resources in flight.  It must only be called while no job is running
// (Runtime.Quiescent calls it between jobs); the checks read owner-local
// state that is unsynchronised by design.  The invariants checked are
// exactly the ones failure containment promises to restore: no hypermerge
// still executing, every pagepool page back in the pool, no worker holding
// views, and every arena block either on a free list or accounted to a
// root merge's release.
func (e *Skeleton[S, P]) Quiescent() error {
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
	e.Dir.leftmostMu.Lock()
	released := e.root.released
	e.Dir.leftmostMu.Unlock()
	ar := e.ArenaStats()
	if live := ar.Allocs - ar.Frees - released; live != 0 {
		return fmt.Errorf("core: %d arena view blocks live (allocs=%d frees=%d rootReleased=%d)",
			live, ar.Allocs, ar.Frees, released)
	}
	return nil
}

// worker returns the state of worker i of the runtime the engine serves,
// or nil.
func (e *Skeleton[S, P]) worker(i int) *Worker[S] {
	rt := e.Runtime()
	if rt == nil || i < 0 || i >= rt.Workers() {
		return nil
	}
	return rt.Worker(i).Local().(*Worker[S])
}

// WorkerPrivateViews reports the number of views currently held in worker
// i's store (diagnostic; it should be zero between runs).
func (e *Skeleton[S, P]) WorkerPrivateViews(i int) int {
	if ws := e.worker(i); ws != nil {
		return ws.Store.Len()
	}
	return 0
}

// PoolStats exposes the deposit page pool's statistics.
func (e *Skeleton[S, P]) PoolStats() pagepool.Stats { return e.pool.Stats() }

// SampleMetrics implements metrics.Source: the series every engine exports
// (Base.SampleMetrics) and the page pool's accounting, atomic loads that are
// safe at any moment of a run.
func (e *Skeleton[S, P]) SampleMetrics(emit func(metrics.MetricSample)) {
	e.Base.SampleMetrics(emit)
	ps := e.PoolStats()
	counter := func(name, help string, v int64) {
		emit(metrics.MetricSample{Name: name, Help: help, Kind: metrics.KindCounter,
			LabelKey: "engine", LabelValue: e.label, Value: float64(v)})
	}
	counter("cilkm_pagepool_round_trips_total", "Page-pool lock round-trips (bulk operations count once).", ps.RoundTrips())
	counter("cilkm_pagepool_allocs_total", "Deposit pages handed out by the page pool.", ps.Allocs)
	counter("cilkm_pagepool_frees_total", "Deposit pages returned to the page pool.", ps.Frees)
	counter("cilkm_pagepool_fresh_pages_total", "Pages created because every pool was empty.", ps.FreshPages)
	counter("cilkm_pagepool_local_hits_total", "Allocations served by a worker's local pool.", ps.LocalHits)
	counter("cilkm_pagepool_global_hits_total", "Allocations served by the global pool.", ps.GlobalHits)
	emit(metrics.MetricSample{Name: "cilkm_pagepool_outstanding_pages", Help: "Pages currently checked out of the pool.",
		Kind: metrics.KindGauge, LabelKey: "engine", LabelValue: e.label, Value: float64(ps.Outstanding())})
}
