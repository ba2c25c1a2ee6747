package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/pagepool"
	"repro/internal/sched"
	"repro/internal/spa"
	"repro/internal/tlmm"
)

// MMConfig configures the memory-mapping engine.
type MMConfig struct {
	// Workers sizes the per-worker structures; it must match the number of
	// workers in the runtime the engine is attached to.
	Workers int
	// Timing enables duration measurement in the overhead instrumentation.
	Timing bool
	// ModelAddressSpace, when true, backs every SPA page with a page of
	// the simulated TLMM address space: reducer slot addresses are
	// reserved in the TLMM region layout and each worker maps a physical
	// page (via the modelled sys_palloc/sys_pmap) the first time it
	// touches a page index.  This exercises the substrate the paper's
	// kernel modification provides; disable it for the tightest possible
	// lookup fast path.
	ModelAddressSpace bool
	// DirectoryShards is the number of reducer-directory shards; it is
	// rounded up to a power of two.  Zero sizes the directory from
	// Workers.  Tests pin it to 1 to make slot recycling deterministic.
	DirectoryShards int
	// MergeBatchSize is the number of occupied SPA slots grouped into one
	// unit of hypermerge work.  Zero selects the default (32).
	MergeBatchSize int
	// ParallelMergeThreshold is the number of reduce pairs a single
	// hypermerge must carry before its batches are fanned out through the
	// scheduler as forked merge tasks; below it the owner folds the slots
	// serially.  Zero selects the default (96); set it very large to keep
	// every merge serial.
	ParallelMergeThreshold int
	// AdaptiveMerge enables the merge tuner: the engine re-derives
	// MergeBatchSize and ParallelMergeThreshold at trace boundaries from
	// the live pipeline signals (average reduce pairs per hypermerge,
	// identity-elision rate) instead of keeping the constructor values for
	// the engine's lifetime.  A knob explicitly set in this config is an
	// override the tuner never touches, so fixed and adaptive operation
	// compose per knob.  Tuning changes only how reduce batches are
	// partitioned and fanned out, never the per-reducer reduce order, so
	// results are bit-identical with tuning on or off (the noncommutative
	// equivalence suites run under both).
	AdaptiveMerge bool
}

// Default batching parameters of the hypermerge pipeline.
const (
	defaultMergeBatchSize         = 32
	defaultParallelMergeThreshold = 96
)

// MM is the memory-mapping reducer engine (the paper's Cilk-M mechanism).
type MM struct {
	cfg MMConfig
	rec *metrics.Recorder
	// pool recycles public SPA pages used for view transferal.
	pool *pagepool.Pool[*spa.Map]

	// Modelled operating-system state (nil unless ModelAddressSpace).
	aspace *tlmm.AddressSpace
	layout *tlmm.RegionLayout
	// pageTable is the RCU-published map from SPA page index to reserved
	// TLMM base address (nil unless ModelAddressSpace).  It is grown by
	// the directory's serialised OnGrow hook and read lock-free by every
	// worker mapping a page, so address-space growth never blocks lookups
	// or other registrations.
	pageTable *tlmm.RegionPageTable

	// dir is the sharded reducer directory: Register, Unregister,
	// Registered and the root merge's reducer resolution all run on its
	// lock-free paths.
	dir *Directory

	// initMu guards attach-time bookkeeping only (the worker list and the
	// recorder resize in WorkerInit); no steady-state path takes it.
	initMu sync.Mutex
	// workers is the RCU-published list of attached per-worker states, so
	// Unregister and region growth can publish view invalidations without
	// a lock.
	workers atomic.Pointer[[]*mmWorker]

	// mergeBatch and parallelThreshold are the live batching knobs.  They
	// are atomics because the adaptive merge tuner (when enabled) retunes
	// them concurrently with merges reading them; Merge loads each knob
	// once per hypermerge, so one merge never observes a mid-flight mix.
	mergeBatch        atomic.Int64
	parallelThreshold atomic.Int64
	// tuner adapts the batching knobs from live pipeline signals; nil
	// unless cfg.AdaptiveMerge.
	tuner *mergeTuner
	// nworkers is the number of per-worker structures maintained: the
	// construction size, grown under initMu in WorkerInit when a larger
	// runtime attaches.  Workers, the tuner and the metrics sampler read it
	// lock-free.
	nworkers atomic.Int64
	// mergePipe aggregates the hypermerge pipeline counters.
	mergePipe metrics.MergePipeline

	// lookups holds the lookup outcome counters FastPathStats reports.
	// LookupWord ticks owner-only plain fields on the mmWorker; EndTrace
	// flushes them here, so a lookup costs no atomic and the totals are
	// exact once a Run has returned.
	lookups metrics.LookupCounters

	// mergeInflight counts hypermerges (Merge and MergeRootDeposit calls)
	// currently executing; part of the engine's quiescence invariant.
	mergeInflight atomic.Int64
	// arenaRootReleased counts arena-carved view blocks released on
	// non-worker goroutines (the root merge and root-side discards), where
	// no arena is available to recycle into: the blocks fall to the garbage
	// collector, and this counter closes the arena live-view accounting —
	// live = Σ(allocs − frees) − arenaRootReleased, zero at quiescence.
	arenaRootReleased atomic.Int64
}

// mmWorker is the per-worker state of the memory-mapping engine: the
// worker's private SPA maps (its TLMM reducer area), the worker's view
// arena, and, when the address space is modelled, the worker's thread VM
// and the set of SPA page indices it has backed with physical pages.
type mmWorker struct {
	eng     *MM
	w       *sched.Worker
	private *spa.MapSet
	// spare caches an emptied map set for reuse by the next BeginTrace.
	spare *spa.MapSet
	// arena carves identity views for arena-eligible monoids and recycles
	// the views the hypermerge folds away.  Owner-goroutine only.
	arena viewArena
	vm    *tlmm.ThreadVM
	// mapped[i] reports whether SPA page index i is backed by a TLMM page
	// in this worker's address space.
	mapped []bool
	// opsFree caches reduce-partition buffers for reuse across hypermerges,
	// so the steady state allocates no mergeOp storage at all.  It is a
	// small stack, not a single slot: a worker blocked in ForkMergeTasks
	// can steal and run another hypermerge reentrantly, putting several
	// buffers in flight at once.  Owner-goroutine only — every merge this
	// worker owns partitions and recycles on its own goroutine.
	opsFree [][]mergeOp
	// lookups counts this worker's LookupWord outcomes since its last
	// EndTrace.  Owner-goroutine only; see MM.lookups.
	lookups metrics.LookupFastPathStats
}

// getOpsBuf hands out a recycled reduce-partition buffer, or a fresh one
// sized to capHint when the stack is empty.
func (ws *mmWorker) getOpsBuf(capHint int) []mergeOp {
	if n := len(ws.opsFree); n > 0 {
		buf := ws.opsFree[n-1]
		ws.opsFree[n-1] = nil
		ws.opsFree = ws.opsFree[:n-1]
		return buf
	}
	return make([]mergeOp, 0, capHint)
}

// putOpsBuf returns a settled partition buffer to the stack.  The buffer is
// cleared first so a cached buffer never pins dead views, owners or pages
// for the collector; merges that panic never reach here, leaving their
// buffer to the panic-cleanup sweep (and the GC) instead.
func (ws *mmWorker) putOpsBuf(ops []mergeOp) {
	if cap(ops) == 0 || len(ws.opsFree) >= 4 {
		return
	}
	clear(ops)
	ws.opsFree = append(ws.opsFree, ops[:0])
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
	ws.arena.free(int(r.arenaClass), s.View())
}

// mmTrace identifies an active trace.  Because a worker that stalls at a
// join helps by executing other stolen tasks, traces nest: the trace token
// holds the private SPA maps of the suspended outer trace so EndTrace can
// restore them once the inner trace completes.
type mmTrace struct {
	ws    *mmWorker
	saved *spa.MapSet
	// ended makes the token single-shot: a trace that already ended — in
	// particular one whose EndTrace panicked after restoring the suspended
	// outer maps — must not swap maps again when the scheduler's abort path
	// calls EndTrace defensively a second time.
	ended bool
}

// dropPrivateViews discards every view in the worker's current private map
// set without merging it anywhere: arena blocks recycle into this worker's
// arena, heap views fall to the garbage collector.  It is the abort-path
// counterpart of view transferal — the trace's updates are already lost,
// so only the resource accounting matters.  Returns the number of views
// dropped.
func (ws *mmWorker) dropPrivateViews() int {
	n := 0
	ws.private.Range(func(addr spa.Addr, s spa.Slot) bool {
		if _, err := ws.private.Remove(addr); err == nil {
			ws.freeSlotView(s)
			n++
		}
		return true
	})
	return n
}

// restoreOuterTrace swaps the (now empty) private map set for the suspended
// outer trace's maps, exactly as the tail of a successful EndTrace does.
func (ws *mmWorker) restoreOuterTrace(mt *mmTrace) {
	if mt != nil && mt.saved != nil {
		ws.spare = ws.private
		ws.private = mt.saved
	}
}

// MMDeposit is the result of view transferal: public SPA pages holding the
// transferred view pointers.
type MMDeposit struct {
	views *spa.MapSet
	// count is the number of views in the deposit.
	count int
}

// Views exposes the deposited views (for tests and diagnostics).
func (d *MMDeposit) Views() *spa.MapSet { return d.views }

// Count returns the number of deposited views.
func (d *MMDeposit) Count() int { return d.count }

// NewMM creates a memory-mapping engine.
func NewMM(cfg MMConfig) *MM {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	// An explicitly configured knob is an override the adaptive tuner
	// never touches; record which knobs were fixed before defaulting.
	batchFixed := cfg.MergeBatchSize > 0
	thresholdFixed := cfg.ParallelMergeThreshold > 0
	if cfg.MergeBatchSize <= 0 {
		cfg.MergeBatchSize = defaultMergeBatchSize
	}
	if cfg.ParallelMergeThreshold <= 0 {
		cfg.ParallelMergeThreshold = defaultParallelMergeThreshold
	}
	e := &MM{
		cfg: cfg,
		rec: metrics.NewRecorder(cfg.Workers),
	}
	e.mergeBatch.Store(int64(cfg.MergeBatchSize))
	e.parallelThreshold.Store(int64(cfg.ParallelMergeThreshold))
	e.nworkers.Store(int64(cfg.Workers))
	if cfg.AdaptiveMerge {
		e.tuner = &mergeTuner{batchFixed: batchFixed, thresholdFixed: thresholdFixed}
	}
	e.rec.SetTiming(cfg.Timing)
	e.pool = pagepool.New[*spa.Map](cfg.Workers,
		func() *spa.Map { return spa.New() },
		pagepool.WithEmptyCheck[*spa.Map](func(m *spa.Map) bool { return m.IsEmpty() }),
	)
	dcfg := DirectoryConfig{Shards: cfg.DirectoryShards, Workers: cfg.Workers}
	if cfg.ModelAddressSpace {
		e.aspace = tlmm.NewAddressSpace(nil)
		e.layout = tlmm.NewRegionLayout()
		e.pageTable = &tlmm.RegionPageTable{}
		dcfg.OnGrow = e.growReducerPage
	}
	e.dir = NewDirectory(dcfg)
	return e
}

// growReducerPage is the directory's OnGrow hook: it reserves TLMM address
// space for one more SPA page and publishes the reservation in the RCU page
// table.  The directory serialises calls and keeps them off the shard fast
// paths, so registering reducer #100,000 neither stalls lookups nor other
// registrations.  Workers observe the growth through the published table
// (and the view-epoch bump) the next time they need to map the page.
func (e *MM) growReducerPage(page int) error {
	if err := faultinject.Error(faultinject.TLMMGrow); err != nil {
		// Injected address-space exhaustion: the registration that
		// triggered the growth fails cleanly (the directory returns the
		// slot to its free stack) and no reservation is recorded.
		return fmt.Errorf("core: reserving TLMM page %d: %w", page, err)
	}
	base, err := e.layout.ReserveReducerPages(1)
	if err != nil {
		return fmt.Errorf("core: reserving TLMM page %d: %w", page, err)
	}
	e.pageTable.Publish(base)
	e.publishViewInvalidation()
	return nil
}

// publishViewInvalidation bumps every attached worker's view epoch, forcing
// every handle's cached view to re-resolve on its next access.  It is the
// cross-worker publication step for events that change shared view
// metadata beneath running contexts: a reducer unregistered mid-run and the
// view regions growing.
func (e *MM) publishViewInvalidation() {
	if ws := e.workers.Load(); ws != nil {
		for _, s := range *ws {
			s.w.BumpViewEpoch()
		}
	}
}

// Name implements Engine.
func (e *MM) Name() string { return "Cilk-M (memory-mapped)" }

// AddressSpace returns the modelled TLMM address space, or nil when the
// model is disabled.
func (e *MM) AddressSpace() *tlmm.AddressSpace { return e.aspace }

// RegionLayout returns the TLMM region layout, or nil when the model is
// disabled.
func (e *MM) RegionLayout() *tlmm.RegionLayout { return e.layout }

// PoolStats exposes the public SPA page pool statistics.
func (e *MM) PoolStats() pagepool.Stats { return e.pool.Stats() }

// ArenaStats aggregates the per-worker view-arena counters.  The counters
// are per-worker atomics, so sampling is safe at any time — including
// mid-run, which is how the metrics exporter reads them; a snapshot taken
// while the engine is quiescent is exact.
func (e *MM) ArenaStats() metrics.ArenaStats {
	var s metrics.ArenaStats
	if ws := e.workers.Load(); ws != nil {
		for _, w := range *ws {
			s.Add(w.arena.stats())
		}
	}
	return s
}

// --- Engine registration and lookup ---

// Register implements Engine: a lock-free slot allocation in the sharded
// directory.  The only lock a registration can encounter is the directory's
// grow mutex, taken once per fresh SPA page (every spa.SlotsPerMap
// addresses) to reserve TLMM address space.
func (e *MM) Register(m Monoid) (*Reducer, error) {
	return e.dir.Register(e, m)
}

// Unregister implements Engine.  The directory's compare-and-swap performs
// the registry identity check: a double-unregister — even one racing a slot
// reuse — can never delete another live reducer's entry or free an address
// twice.  A successful unregister publishes a view invalidation so every
// context re-resolves its cached view on the next lookup.  Re-resolution of
// the retired handle itself yields the frozen leftmost value — unless the
// calling worker still holds the reducer's private view for the current
// trace, in which case that view (doomed to be dropped, never merged)
// remains readable until the trace ends; the owner stamp guarantees no
// OTHER reducer can ever observe it.
func (e *MM) Unregister(r *Reducer) {
	if r == nil || r.eng != Engine(e) {
		return
	}
	if e.dir.Unregister(r) {
		e.publishViewInvalidation()
	}
	r.markRetired()
}

// Registered returns the number of live reducers.  Lock-free.
func (e *MM) Registered() int { return e.dir.Live() }

// Directory exposes the sharded reducer directory (for tests, benchmarks
// and diagnostics).
func (e *MM) Directory() *Directory { return e.dir }

// DirectoryStats returns a snapshot of the directory's shard layout and
// contention counters.
func (e *MM) DirectoryStats() metrics.DirectoryStats { return e.dir.Stats() }

// LookupWord implements Engine.  The hit is the paper's two memory accesses
// and a predictable branch:
//
//	worker   := c.Worker()                    // one field load
//	private  := worker.Local().(*mmWorker)    // one load + type check
//	epoch    := worker.ViewEpoch()            // atomic load
//	slot     := private.Probe(r.page, r.slot) // bounds check + 2 indexed loads
//	hit      := slot.FastHit(r, mutable)      // 2 masked compares
//
// The reducer's (page, slot) pair is precomputed at registration
// (SlotsPerMap is not a power of two, so Addr.Page/Addr.Slot each cost an
// integer division) and every helper on the path is small enough for the
// compiler to inline — `make inline-check` pins that.  The owner stamp in
// the slot's second word guarantees a recycled address never serves a stale
// view, so the hit is independent of the number of live reducers.
// Everything else — written-bit stamping, first touches, recycled slots,
// retired handles — is outlined into lookupMiss so the hot shape stays
// branch-predictable.  The typed handles call this method on the concrete
// *MM (no interface dispatch); everyone else reaches it through Engine.
func (e *MM) LookupWord(c *sched.Context, r *Reducer, _ uint64, mutable bool) (unsafe.Pointer, uint64) {
	if c != nil {
		w := c.Worker()
		if ws, ok := w.Local().(*mmWorker); ok {
			epoch := w.ViewEpoch()
			if s := ws.private.Probe(int(r.page), int(r.slot)); s.FastHit(ownerWord(r), mutable) {
				ws.lookups.Hits++
				return s.View(), epoch
			}
			return e.lookupMiss(w, ws, r, epoch, mutable)
		}
	}
	return r.UnboxView(r.Value()), 0
}

// lookupMiss is the outlined slow half of LookupWord.  An owned slot gets
// here only when a mutable access found its written bit clear, and is
// stamped rather than re-created; it keeps serving its private view until
// the trace ends even if the reducer has been retired meanwhile (the check
// is the owner stamp, not directory validity).  A retired handle without a
// private view is served the frozen leftmost value and epoch zero, so the
// caller never caches it.  Anything else installs an identity view.
func (e *MM) lookupMiss(w *sched.Worker, ws *mmWorker, r *Reducer, epoch uint64, mutable bool) (unsafe.Pointer, uint64) {
	ws.lookups.Misses++
	s := ws.private.Probe(int(r.page), int(r.slot))
	if s.View() != nil && s.Owner() == ownerWord(r) {
		ws.private.MarkWritten(r.addr)
		return s.View(), epoch
	}
	ws.lookups.ColdMisses++
	if !e.dir.Valid(r) {
		return r.UnboxView(r.Value()), 0
	}
	if s.View() != nil {
		// Occupied by another owner: the occupant registered an earlier
		// incarnation of this recycled address.  The directory holds at
		// most one live registration per address — r — so the occupant is
		// retired and its in-flight view is dropped (and its arena block
		// recycled).
		if old, err := ws.private.Remove(r.addr); err == nil {
			ws.freeSlotView(old)
			e.mergePipe.StaleViewDrops.Add(1)
		}
	}
	return e.lookupSlow(w, ws, r, mutable), epoch
}

// Workers implements Engine: the number of per-worker structures currently
// maintained (construction size, grown when a larger runtime attaches).
func (e *MM) Workers() int { return int(e.nworkers.Load()) }

// lookupSlow creates and installs an identity view in r's (empty) private
// slot: it runs at most once per reducer per steal, plus once per slot
// recycle.  Arena-eligible monoids get their view carved out of the
// worker's view arena — a free-list pop or a bump allocation, no heap
// allocator — and the slot's arena flag records that the block is
// recyclable when the view dies.  mutable stamps the written bit; a
// read-only first lookup leaves it clear so the identity view can be elided
// if it is never subsequently written.
func (e *MM) lookupSlow(w *sched.Worker, ws *mmWorker, r *Reducer, mutable bool) unsafe.Pointer {
	// Ensure the worker's TLMM region backs the SPA page holding this slot.
	if ws.vm != nil {
		ws.ensureMapped(int(r.page))
	}
	// Chaos point for a monoid whose Identity blows up: fired before any
	// slot state is written, so a contained identity panic leaves the
	// worker's maps exactly as they were.
	faultinject.Check(faultinject.MonoidIdentity)
	var word unsafe.Pointer
	var flags uintptr
	start := e.rec.Start()
	if r.arenaClass >= 0 {
		word = ws.arena.alloc(int(r.arenaClass))
		r.arena.InitView(word)
		flags = spa.FlagArena
	} else {
		word = r.UnboxView(r.monoid.Identity())
		ws.arena.heapViews.Add(1)
	}
	e.rec.Stop(w.ID(), metrics.ViewCreation, start)
	if mutable {
		flags |= spa.FlagWritten
	}

	start = e.rec.Start()
	// The slot's second word is the owner stamp (the reducer handle, which
	// carries the monoid), not the bare monoid: see LookupWord.
	if err := ws.private.Insert(r.addr, word, ownerWord(r), flags); err != nil {
		// lookupMiss cleared any stale occupant, so an occupied slot here
		// is a programming error.
		panic(fmt.Sprintf("core: SPA slot %d unexpectedly occupied: %v", r.addr, err))
	}
	e.rec.Stop(w.ID(), metrics.ViewInsertion, start)
	return word
}

// ensureMapped backs SPA page index pi with a physical page in this
// worker's modelled TLMM region (sys_palloc + sys_pmap), once.  The page's
// virtual base comes from the RCU-published region page table, which the
// directory's grow hook populates before the page's first address is handed
// out, so the lock-free read here can never miss.  The mapped bitmap grows
// to the target length in one step (with doubling, so registration churn
// that walks page indices upward costs amortised O(1) per page, not one
// append per missing index).
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
	if ws.mapped[pi] {
		return
	}
	base, ok := ws.eng.pageTable.Base(pi)
	if !ok {
		panic(fmt.Sprintf("core: SPA page %d not published in the region page table", pi))
	}
	pd := ws.eng.aspace.Phys.Palloc()
	if err := ws.vm.Pmap(base, []tlmm.PD{pd}); err != nil {
		panic(fmt.Sprintf("core: mapping SPA page %d: %v", pi, err))
	}
	ws.mapped[pi] = true
}

// --- sched.ReducerRuntime hooks ---

// WorkerInit implements sched.ReducerRuntime.  It runs once per worker
// while the attaching runtime is being constructed — before any of that
// runtime's tasks execute — so it sizes the overhead recorder from the
// runtime's actual worker count and the recorder can index by worker ID
// directly.  An engine must not be attached to a new runtime while a
// previously attached one is executing: the resize would race with that
// runtime's lock-free recorder writes.  (Sessions couple one engine to one
// runtime, so no current caller does this.)
func (e *MM) WorkerInit(w *sched.Worker) {
	ws := &mmWorker{
		eng:     e,
		w:       w,
		private: spa.NewMapSet(),
	}
	if e.aspace != nil {
		ws.vm = e.aspace.NewThread()
	}
	w.SetLocal(ws)
	e.initMu.Lock()
	if n := w.Runtime().Workers(); int64(n) > e.nworkers.Load() {
		e.rec.EnsureWorkers(n)
		e.nworkers.Store(int64(n))
	}
	// Republish the worker list copy-on-write: publication sweeps
	// (Unregister, region growth) iterate it lock-free.
	var grown []*mmWorker
	if cur := e.workers.Load(); cur != nil {
		grown = append(grown, *cur...)
	}
	grown = append(grown, ws)
	e.workers.Store(&grown)
	e.initMu.Unlock()
}

// BeginTrace implements sched.ReducerRuntime.  The new trace starts with an
// empty set of private SPA maps; the previous trace's maps (non-empty when
// the worker is helping at a stalled join) are saved in the trace token and
// restored by EndTrace.
func (e *MM) BeginTrace(w *sched.Worker) sched.Trace {
	ws, _ := w.Local().(*mmWorker)
	if ws == nil {
		return &mmTrace{}
	}
	tr := &mmTrace{ws: ws, saved: ws.private}
	if ws.spare != nil {
		ws.private = ws.spare
		ws.spare = nil
	} else {
		ws.private = spa.NewMapSet()
	}
	w.BumpViewEpoch()
	return tr
}

// EndTrace implements sched.ReducerRuntime: it performs view transferal
// with identity-view elision.  Slots whose written bit never got set still
// hold the monoid identity — the trace looked them up but never mutated
// them — so folding them at the join would be a no-op; they are removed
// here instead, their arena blocks recycled, before the deposit is even
// sized.  A trace whose views were all elided deposits nothing and performs
// no pagepool round-trip at all.  The surviving views are copied into
// public SPA pages fetched from the pool in one bulk round-trip (zeroing
// the private slots as the worker sequences through), and the suspended
// outer trace's maps are restored.
func (e *MM) EndTrace(w *sched.Worker, tr sched.Trace) sched.Deposit {
	ws, _ := w.Local().(*mmWorker)
	if ws == nil {
		return nil
	}
	mt, _ := tr.(*mmTrace)
	if mt != nil {
		if mt.ended {
			return nil
		}
		mt.ended = true
	}
	e.lookups.Flush(&ws.lookups)
	var dep *MMDeposit
	elided := int64(0)
	ws.private.Range(func(addr spa.Addr, s spa.Slot) bool {
		if s.Written() {
			return true
		}
		if _, err := ws.private.Remove(addr); err == nil {
			ws.freeSlotView(s)
			elided++
		}
		return true
	})
	if elided > 0 {
		e.mergePipe.IdentityElisions.Add(elided)
	}
	if span := ws.private.OccupiedPageSpan(); span > 0 {
		start := e.rec.Start()
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
			// to drop them and unwind.  Every private view recycles into this
			// worker's arena, the suspended outer trace's maps come back, and
			// the panic is contained at the job boundary by the scheduler.
			ws.dropPrivateViews()
			ws.restoreOuterTrace(mt)
			w.BumpViewEpoch()
			panic(fmt.Errorf("core: view transferal: %w", err))
		}
		public := spa.NewMapSet()
		public.AttachPages(pages)
		e.mergePipe.BulkPageFetches.Add(1)
		moved, terr := ws.private.TransferTo(public)
		if terr != nil {
			panic(fmt.Sprintf("core: view transferal failed: %v", terr))
		}
		e.rec.Stop(w.ID(), metrics.ViewTransferal, start)
		dep = &MMDeposit{views: public, count: moved}
	}
	if mt != nil && mt.saved != nil {
		// The now-empty map set becomes the spare for the next trace.
		ws.spare = ws.private
		ws.private = mt.saved
	}
	w.BumpViewEpoch()
	if dep == nil {
		return nil
	}
	return dep
}

// mergeOp is one reduce pair of a hypermerge: the slot address, the owning
// reducer resolved from the owner stamp, and the packed slots holding the
// serially-earlier current view and the deposited view.  The partition pass
// also resolves the slot's position in the current trace's map set — the
// page pointer and the slot index — so the reduce inner loop updates the
// surviving slot with plain indexing instead of re-deriving page and slot
// from the address (SlotsPerMap is 248, so every Addr decomposition is an
// integer division).  page stays valid even if the map set grows during the
// partition: pages are stable heap objects, only the page table reallocates.
// runMergeBatch records the views the reduce killed in dead; the merge
// owner recycles their arena blocks after the batches join (cross-worker
// batch executors never touch an arena).
type mergeOp struct {
	addr  spa.Addr
	owner *Reducer
	page  *spa.Map
	slot  int32
	cur   spa.Slot
	dep   spa.Slot
	dead  [2]spa.Slot
}

// mergeLocalitySortMin is the reduce-partition size at which Merge orders
// the ops by (arena size class, current-view address) before batching.
// Below it the ordering pass costs more than the contiguity buys; above it
// each batch walks same-class views in address order — contiguous runs
// through the arena chunks the views were carved from.
const mergeLocalitySortMin = 512

// mergeLocalityIdxBits bounds the partitions the locality sort handles: the
// op index shares the packed sort key with the class and address, so
// partitions of 2^20 ops or more skip the ordering (they are far past any
// size where the key encoding is worth revisiting).
const mergeLocalityIdxBits = 20

// sortOpsByLocality computes the order in which a reduce partition's ops
// should run so that views of one arena size class form contiguous
// address-ordered runs.  The sort key packs (class+1, view address, op
// index) into one uint64 — heap views (class -1) sort first, the
// 8-byte-aligned address is kept to 36 significant bits (truncation only
// perturbs ordering across 512 GiB strides, and the order is a locality
// heuristic, never a correctness condition), and the index makes keys
// unique and the permutation stable.  The ops themselves stay in place:
// the result is an index permutation the batch loops walk, so the sort
// moves 8-byte keys, never the ~100-byte ops (physically permuting them
// measurably slowed large parallel merges).  Deposits usually arrive
// already address-ordered — views are carved from bump chunks in slot
// order — so the already-sorted check keeps the steady-state cost at one
// linear scan; a nil result means "run in natural order".
func sortOpsByLocality(ops []mergeOp) []uint32 {
	keys := make([]uint64, len(ops))
	for i := range ops {
		op := &ops[i]
		class := uint64(uint8(op.owner.arenaClass+1)) & 0xFF
		view := uint64(uintptr(op.cur.View())) >> 3
		keys[i] = class<<56 | (view&(1<<36-1))<<mergeLocalityIdxBits | uint64(i)
	}
	if slices.IsSorted(keys) {
		return nil
	}
	slices.Sort(keys)
	order := make([]uint32, len(ops))
	for j, k := range keys {
		order[j] = uint32(k & (1<<mergeLocalityIdxBits - 1))
	}
	return order
}

// runMergeBatch folds one batch of reduce pairs into the current trace's
// private SPA slots.  Distinct batches touch disjoint slots, so batches may
// run concurrently; within a batch each Reduce keeps the serially-earlier
// view on the left, preserving the serial order of every reducer's view
// chain.  The interface values handed to the monoid are assembled from the
// slot words (BoxView: word pairing, no allocation), and the combined
// result is unboxed back into the op's pre-resolved (page, slot) position —
// no address decomposition anywhere in the loop.
func runMergeBatch(ops []mergeOp) {
	for i := range ops {
		runMergeOp(&ops[i])
	}
}

// runMergeBatchOrdered is runMergeBatch through an index permutation: the
// batch is a slice of the locality order computed by sortOpsByLocality, and
// the ops stay at their partition positions (the panic-cleanup and
// dead-view sweeps iterate them positionally).  Slices of one permutation
// are disjoint index sets, so ordered batches parallelise exactly like
// positional ones.
func runMergeBatchOrdered(ops []mergeOp, order []uint32) {
	for _, j := range order {
		runMergeOp(&ops[j])
	}
}

// runMergeOp folds one reduce pair into its pre-resolved current-trace
// slot.
func runMergeOp(op *mergeOp) {
	// Chaos point for a monoid whose Reduce blows up mid-hypermerge:
	// fired before the op's slots are touched, so this op's dead records
	// stay empty and the cleanup path treats it as never run.
	faultinject.Check(faultinject.MonoidReduce)
	left := op.owner.BoxView(op.cur.View())
	right := op.owner.BoxView(op.dep.View())
	combined := op.owner.UnboxView(op.owner.monoid.Reduce(left, right))
	switch combined {
	case op.cur.View():
		// The usual in-place reduction: the current view survives and
		// the deposited view dies.  The surviving slot now carries the
		// deposit's (written) contribution even if the current trace
		// only ever read it, so its written bit must be set — otherwise
		// the trace-end elision would drop the merged value.
		if !op.cur.Written() {
			op.page.MarkWritten(int(op.slot))
		}
		op.dead[0] = op.dep
	case op.dep.View():
		// The monoid returned its right argument: the deposited view
		// (flags included) replaces the current one, which dies.
		if err := op.page.Update(int(op.slot), combined, op.dep.Flags()|spa.FlagWritten); err != nil {
			panic(fmt.Sprintf("core: hypermerge update: %v", err))
		}
		op.dead[0] = op.cur
	default:
		// A fresh combined view of unknown provenance: no arena flag,
		// and both inputs die.
		if err := op.page.Update(int(op.slot), combined, spa.FlagWritten); err != nil {
			panic(fmt.Sprintf("core: hypermerge update: %v", err))
		}
		op.dead[0] = op.cur
		op.dead[1] = op.dep
	}
}

// Merge implements sched.ReducerRuntime: the hypermerge, rebuilt as a
// batched pipeline over packed slots.  One pass over the deposit partitions
// the occupied slots: never-written views are elided outright (recycled
// without a reduce call — MM deposits are normally already elided at
// EndTrace, but deposits that bypass it, and future transports, stay
// correct), views with no matching current view are adopted wholesale (a
// slot insertion, flags preserved, done serially because it mutates the map
// structure), and matched pairs are gathered into batches of MergeBatchSize
// reduce operations with their target (page, slot) position pre-resolved —
// the partition walks deposit and current pages in lockstep, and the reduce
// loops never decompose an address again.  Large partitions are first
// ordered by (arena size class, view address) so each batch works through
// contiguous runs of the arena chunks (see sortOpsByLocality).  Small
// merges fold their batches serially; once the
// pair count crosses ParallelMergeThreshold the batches are fanned out
// through the scheduler as forked merge tasks, which is sound because
// distinct reducers' Reduce calls are independent and each reducer still
// sees current ⊗ deposited exactly once per deposit.  After the batches
// complete, the owner recycles the arena blocks of every view the reduces
// killed, and the emptied public pages go back to the pool in one bulk
// round-trip.
func (e *MM) Merge(w *sched.Worker, tr sched.Trace, d sched.Deposit) {
	dep, _ := d.(*MMDeposit)
	if dep == nil {
		return
	}
	ws, _ := w.Local().(*mmWorker)
	if ws == nil {
		return
	}
	e.mergeInflight.Add(1)
	defer e.mergeInflight.Add(-1)
	start := e.rec.Start()
	// Capture the merging trace's map set once: if the fan-out below
	// stalls and this worker helps with other stolen work, ws.private is
	// temporarily swapped, but the partition (and the page pointers it
	// resolves into the ops) must keep targeting the trace that owns the
	// join.
	cur := ws.private
	var ops []mergeOp
	// If a reduce panics mid-hypermerge (a buggy — or fault-injected —
	// monoid), the deposit must not leak: every deposited view is either
	// already folded into cur, recorded dead, or still unmerged in ops /
	// dep.views.  Settle all three classes, return the public pages, and
	// let the wrapped panic unwind to the job boundary.
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if dep.views == nil {
			// The deposit was already fully settled by the success path.
			panic(p)
		}
		for i := range ops {
			op := &ops[i]
			dep.views.Remove(op.addr)
			if op.dead[0].IsEmpty() && op.dead[1].IsEmpty() {
				// The op never ran: its deposited view dies unmerged.  (cur
				// may hold a partial merge — the job is aborting, and the
				// trace's views are discarded at the recovery point.)
				ws.freeSlotView(op.dep)
				continue
			}
			for _, dv := range op.dead {
				if !dv.IsEmpty() {
					ws.freeSlotView(dv)
				}
			}
		}
		// Anything still left (a future transport that panics during the
		// partition pass) dies with its slot.
		dep.views.Range(func(addr spa.Addr, s spa.Slot) bool {
			if _, err := dep.views.Remove(addr); err == nil {
				ws.freeSlotView(s)
			}
			return true
		})
		if pages := dep.views.DrainPages(); len(pages) > 0 {
			e.pool.PutN(w.ID(), pages)
			e.mergePipe.BulkPageReturns.Add(1)
		}
		dep.views = nil
		dep.count = 0
		w.BumpViewEpoch()
		panic(p)
	}()
	adopts := int64(0)
	staleDrops := int64(0)
	elisions := int64(0)
	// The partition walks the deposit's pages directly, pairing each with
	// the current trace's page of the same index, so the per-slot work is
	// one array index on each side — no address recomposition in the loop
	// and no division to split it back apart.  The Addr is still assembled
	// (one add against the page base) for the removal paths and the
	// panic-cleanup records, which stay address-keyed.
	for pi, depPages := 0, dep.views.Pages(); pi < depPages; pi++ {
		dp := dep.views.Page(pi)
		if dp == nil || dp.IsEmpty() {
			continue
		}
		// curPage is resolved once per page.  An adopt below may create the
		// page in cur after this lookup returned nil; the cached nil stays
		// correct for the rest of this page's slots — a just-created page
		// holds only slots this loop adopted, and each slot index is
		// visited exactly once.
		curPage := cur.Page(pi)
		pageBase := spa.MakeAddr(pi, 0)
		dp.Range(func(si int, s spa.Slot) bool {
			addr := pageBase + spa.Addr(si)
			owner := reducerOf(s.Owner())
			if !s.Written() {
				// The view was looked up but never written: it still equals the
				// monoid identity, and current ⊗ e = current.  Recycle it with
				// no reduce call and no slot traffic.  The slot is removed from
				// the deposit as it is freed so the panic-cleanup sweep above can
				// never see (and double-free) it.
				if _, err := dep.views.Remove(addr); err == nil {
					ws.freeSlotView(s)
				}
				elisions++
				return true
			}
			var curSlot spa.Slot
			if curPage != nil {
				curSlot = curPage.SlotAt(si)
			}
			if curSlot.View() != nil {
				if curSlot.Owner() == ownerWord(owner) {
					if ops == nil {
						ops = ws.getOpsBuf(dep.count)
					}
					ops = append(ops, mergeOp{
						addr: addr, owner: owner,
						page: curPage, slot: int32(si),
						cur: curSlot, dep: s,
					})
					return true
				}
				// The owner stamps differ, so the address was recycled while
				// one of the views was in flight; the directory holds at most
				// one live registration per address, so at most one side can
				// still be valid.  Drop the stale side (recycling its block).
				if owner == nil || !e.dir.Valid(owner) {
					if _, err := dep.views.Remove(addr); err == nil {
						ws.freeSlotView(s)
					}
					staleDrops++
					return true
				}
				old, err := cur.Remove(addr)
				if err != nil {
					panic(fmt.Sprintf("core: hypermerge stale removal: %v", err))
				}
				ws.freeSlotView(old)
				staleDrops++
				// Fall through to adopt the deposited (live) view.
			}
			if ws.vm != nil {
				ws.ensureMapped(pi)
			}
			if err := cur.InsertSlot(addr, s); err != nil {
				panic(fmt.Sprintf("core: hypermerge insert: %v", err))
			}
			// The view now lives in cur; clear the deposit's reference so the
			// panic-cleanup sweep cannot free a view another map owns.
			dep.views.Remove(addr)
			adopts++
			return true
		})
	}
	// Load the batching knobs once per hypermerge: the adaptive tuner may
	// retune them concurrently, and one merge must partition consistently.
	mergeBatch := int(e.mergeBatch.Load())
	parallelThreshold := int(e.parallelThreshold.Load())
	reduces := int64(len(ops))
	var order []uint32
	if len(ops) >= mergeLocalitySortMin && len(ops) < 1<<mergeLocalityIdxBits {
		order = sortOpsByLocality(ops)
		e.mergePipe.LocalitySorts.Add(1)
	}
	batches := 0
	if len(ops) > 0 {
		batches = (len(ops) + mergeBatch - 1) / mergeBatch
	}
	if len(ops) >= parallelThreshold && batches > 1 {
		fns := make([]func(), 0, batches)
		for lo := 0; lo < len(ops); lo += mergeBatch {
			hi := min(lo+mergeBatch, len(ops))
			if order != nil {
				batch := order[lo:hi]
				fns = append(fns, func() { runMergeBatchOrdered(ops, batch) })
			} else {
				batch := ops[lo:hi]
				fns = append(fns, func() { runMergeBatch(batch) })
			}
		}
		e.mergePipe.ParallelMerges.Add(1)
		w.ForkMergeTasks(fns)
	} else if order != nil {
		runMergeBatchOrdered(ops, order)
	} else if len(ops) > 0 {
		runMergeBatch(ops)
	}
	// The batches have joined (ForkMergeTasks blocks), so the dead-view
	// records are visible here; return their arena blocks to this worker's
	// arena — "the owning arena at trace end" — off the batch executors'
	// goroutines.
	for i := range ops {
		for _, dv := range ops[i].dead {
			if !dv.IsEmpty() {
				ws.freeSlotView(dv)
			}
		}
	}
	ws.putOpsBuf(ops)
	w.BumpViewEpoch()
	e.rec.Stop(w.ID(), metrics.Hypermerge, start)
	if reduces > 1 {
		e.rec.RecordCount(w.ID(), metrics.Hypermerge, reduces-1)
	}
	if adopts > 0 {
		e.rec.RecordCount(w.ID(), metrics.ViewInsertion, adopts)
	}
	e.mergePipe.Merges.Add(1)
	e.mergePipe.SlotsMerged.Add(reduces + adopts)
	e.mergePipe.Reduces.Add(reduces)
	e.mergePipe.Adopts.Add(adopts)
	e.mergePipe.Batches.Add(int64(batches))
	if staleDrops > 0 {
		e.mergePipe.StaleViewDrops.Add(staleDrops)
	}
	if elisions > 0 {
		e.mergePipe.IdentityElisions.Add(elisions)
	}
	if pages := dep.views.DrainPages(); len(pages) > 0 {
		e.pool.PutN(w.ID(), pages)
		e.mergePipe.BulkPageReturns.Add(1)
	}
	dep.views = nil
	dep.count = 0
	// A completed hypermerge is a trace-boundary event and the only point
	// where the tuner's input signals change, so retuning hooks in here
	// (and costs one atomic load and a compare when the window has not
	// filled, nothing when tuning is off).
	if e.tuner != nil {
		e.tuner.maybeRetune(e)
	}
}

// MergeRootDeposit implements Engine: the views produced by the root trace
// are folded into the reducers' leftmost views in serial order.  The owner
// stamp carried by every deposited slot resolves the reducer directly —
// no registry copy, no lock — and the directory's epoch-stamped Valid check
// drops views whose reducer was unregistered while they were in flight,
// even if the address has since been recycled.  Never-written views are
// elided exactly as in Merge (leftmost ⊗ e = leftmost); their blocks are
// not recycled — MergeRootDeposit runs on the caller's goroutine, which
// owns no arena — and fall to the garbage collector with the deposit.
func (e *MM) MergeRootDeposit(d sched.Deposit) {
	dep, _ := d.(*MMDeposit)
	if dep == nil || dep.views == nil {
		return
	}
	e.mergeInflight.Add(1)
	defer e.mergeInflight.Add(-1)
	dep.views.Range(func(addr spa.Addr, s spa.Slot) bool {
		// Whatever happens to the view below — absorbed into the leftmost,
		// elided, or dropped stale — an arena-carved block leaves the arena
		// accounting here: no worker goroutine owns this code path, so the
		// block goes to the garbage collector instead of a free list, and
		// arenaRootReleased closes the books on it.
		if s.Arena() {
			e.arenaRootReleased.Add(1)
		}
		owner := reducerOf(s.Owner())
		if owner == nil || !e.dir.Valid(owner) {
			// The reducer was unregistered while views for it were still
			// in flight; fold into nothing (drop), mirroring a view whose
			// reducer went out of scope.
			e.mergePipe.StaleViewDrops.Add(1)
			return true
		}
		if !s.Written() {
			e.mergePipe.IdentityElisions.Add(1)
			return true
		}
		owner.absorb(owner.BoxView(s.View()))
		return true
	})
	if pages := dep.views.DrainPages(); len(pages) > 0 {
		e.pool.PutN(0, pages)
		e.mergePipe.BulkPageReturns.Add(1)
	}
	dep.views = nil
	dep.count = 0
}

// Discard implements sched.ReducerRuntime: release the resources held by a
// deposit that will never be merged — the containment path for a job that
// panicked or was cancelled between a trace's EndTrace and its join.  When
// the discarding goroutine is a worker, arena-carved views recycle into
// that worker's arena (cross-arena frees are legal: blocks are not returned
// to the chunk they were carved from); from a non-worker goroutine the
// blocks fall to the garbage collector and are counted out of the arena
// accounting like root-merged views.  The public SPA pages always go back
// to the pool.  A nil or already-consumed deposit is a no-op, so Discard
// is safe to call on both sides of a racing settle.
func (e *MM) Discard(w *sched.Worker, d sched.Deposit) {
	dep, _ := d.(*MMDeposit)
	if dep == nil || dep.views == nil {
		return
	}
	var ws *mmWorker
	if w != nil {
		ws, _ = w.Local().(*mmWorker)
	}
	dep.views.Range(func(addr spa.Addr, s spa.Slot) bool {
		if _, err := dep.views.Remove(addr); err != nil {
			return true
		}
		if ws != nil {
			ws.freeSlotView(s)
		} else if s.Arena() {
			e.arenaRootReleased.Add(1)
		}
		return true
	})
	wid := 0
	if w != nil {
		wid = w.ID()
	}
	if pages := dep.views.DrainPages(); len(pages) > 0 {
		e.pool.PutN(wid, pages)
		e.mergePipe.BulkPageReturns.Add(1)
	}
	dep.views = nil
	dep.count = 0
}

// Quiescent implements Engine: verify that no job left resources in flight.
// It must only be called while no job is running (after Runtime.Run and the
// root-deposit merge have returned); the checks read owner-local counters
// that are unsynchronised by design.  The invariants checked are exactly
// the ones failure containment promises to restore: no hypermerge still
// executing, every pagepool page back in the pool, no worker holding
// private views, and every arena block either on a free list or accounted
// to a root-side release.
func (e *MM) Quiescent() error {
	if n := e.mergeInflight.Load(); n != 0 {
		return fmt.Errorf("core: %d hypermerges still in flight", n)
	}
	if out := e.pool.Stats().Outstanding(); out != 0 {
		return fmt.Errorf("core: %d pagepool pages outstanding", out)
	}
	if list := e.workers.Load(); list != nil {
		for i, ws := range *list {
			if ws == nil {
				continue
			}
			if n := ws.private.Len(); n != 0 {
				return fmt.Errorf("core: worker %d holds %d private views", i, n)
			}
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

// Overheads implements Engine.
func (e *MM) Overheads() metrics.Breakdown { return e.rec.Snapshot() }

// ResetOverheads implements Engine.
func (e *MM) ResetOverheads() {
	e.rec.Reset()
	e.lookups.Reset()
	e.mergePipe.Reset()
}

// MergeStats returns a snapshot of the hypermerge pipeline counters.
func (e *MM) MergeStats() metrics.MergePipelineStats { return e.mergePipe.Snapshot() }

// FastPathStats returns a snapshot of the lookup outcome counters: every
// LookupWord that reached a worker's private maps is one hit or one miss.
// Workers flush their counts at EndTrace, so the snapshot is exact once a
// Run has returned and lags by at most one trace while one is running.
func (e *MM) FastPathStats() metrics.LookupFastPathStats { return e.lookups.Snapshot() }

// WorkerPrivateViews reports the number of views currently held in worker
// i's private SPA maps (diagnostic; it should be zero between runs).
func (e *MM) WorkerPrivateViews(i int) int {
	ws := e.workers.Load()
	if ws == nil || i < 0 || i >= len(*ws) {
		return 0
	}
	return (*ws)[i].private.Len()
}

// WorkerMappedPages reports how many SPA page indexes worker i has backed
// with TLMM pages (diagnostic; zero unless ModelAddressSpace).  Together
// with the address space's PmapCalls it pins down the page-accounting
// invariant: each worker maps each page it touches exactly once, no matter
// how registration churn interleaves with growth.
func (e *MM) WorkerMappedPages(i int) int {
	ws := e.workers.Load()
	if ws == nil || i < 0 || i >= len(*ws) {
		return 0
	}
	if vm := (*ws)[i].vm; vm != nil {
		return vm.MappedPages()
	}
	return 0
}

var _ Engine = (*MM)(nil)
