package hypermap

import (
	"fmt"
	"unsafe"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/spa"
)

// Config configures the hypermap engine.
type Config struct {
	// Workers sizes the per-worker structures: the runtime the engine
	// serves may have at most this many workers.
	Workers int
	// Timing enables duration measurement in the overhead instrumentation.
	Timing bool
}

// HM is the hypermap reducer engine (the Cilk Plus baseline mechanism).
// The concrete name matters to the typed reducer handles: they capture *HM
// at construction and call its LookupWord directly, mirroring the
// memory-mapped engine's *core.MM, so neither mechanism pays an interface
// dispatch on a handle-cache miss.  Registration (through the same
// directory), the runtime it serves and the counts are the core.Base it
// shares with the memory-mapped engine, so the figure comparisons measure
// the lookup structures rather than two frames.
type HM struct {
	core.Base
}

// hmWorker is the per-worker state: the user hypermap of the trace the
// worker is currently executing.
type hmWorker struct {
	// user is the user hypermap: reducer address → local view.
	user *hashTable
	// tally counts everything since the worker's last flush into
	// Base.Totals.  Owner-goroutine only.
	tally metrics.Tally
}

// entry pairs a local view with the reducer that owns it: 16 bytes, like
// the SPA slot.  The view is the same single word the SPA slot stores
// (internal/core/word.go) and the monoid's kernel takes, so both mechanisms
// reduce the same way.  The owner stamp plays the role the monoid pointer
// plays in Cilk Plus (it carries the monoid) and additionally lets a lookup
// detect that an entry at a recycled address belongs to a retired reducer.
type entry struct {
	view  unsafe.Pointer
	owner *core.Reducer
}

// A compile-time check that an entry is two words, like spa.Slot.
var _ = [1]struct{}{}[unsafe.Sizeof(entry{})-spa.SlotBytes]

// Deposit is a deposited hypermap: view transferal in the hypermap scheme
// simply hands over the map.
type Deposit struct {
	views *hashTable
}

// Len returns the number of deposited views.
func (d *Deposit) Len() int {
	if d.views == nil {
		return 0
	}
	return d.views.len()
}

// New creates a hypermap engine.
func New(cfg Config) *HM {
	e := &HM{}
	core.InitBase(&e.Base, e, "hypermap", cfg.Workers, cfg.Timing, nil)
	return e
}

// Name implements core.Engine.
func (e *HM) Name() string { return "Cilk Plus (hypermap)" }

// --- lookup ---

// LookupWord implements core.Engine: a hash-table lookup keyed by the
// reducer's address.  The hit shape is one hash (the baseline's
// characteristic modulo by the bucket count), one bucket-head load and two
// compares: the loop-free probeHead answers when r's entry heads its chain
// (the common case at steady state) and inlines here, so the comparison
// between mechanisms measures the lookup structures (SPA indexing vs
// chained hash) and nothing else.  Every other situation — a below-head
// entry, first touches, recycled addresses, retired handles — takes the
// outlined lookupMiss.  The owner stamp guarantees an entry at a recycled
// address never serves a stale view, mirroring the memory-mapped engine's
// SPA slot stamp.
//
//cilkvet:hotpath
func (e *HM) LookupWord(c *sched.Context, r *core.Reducer, _ uint64, mutable bool) (unsafe.Pointer, bool) {
	if c != nil {
		w := c.Worker()
		ws, ok := w.Local().(*hmWorker)
		if !ok {
			panic(core.ErrForeignRuntime)
		}
		if ent := ws.user.probeHead(r.Addr()); ent != nil && ent.owner == r {
			ws.tally.Lookups.Hits++
			return ent.view, true
		}
		return e.lookupMiss(w, ws, r, mutable)
	}
	return r.LeftmostView(), false
}

// lookupMiss is the outlined slow half of LookupWord.  A worker of a runtime
// the engine does not serve is trapped first (core.ErrForeignRuntime): its
// hypermap is another engine's.  The full chain walk re-probes, because the
// head probe rejects below-head entries.  A retired handle without an entry
// of its own is served the frozen leftmost value, uncacheable, matching a
// serial lookup after unregistration.  A read-only
// lookup of a reducer whose identity is the zero value is served the
// trace's zero block (spa.ZeroBlock) and inserts nothing; the first mutable
// access installs the view.  Anything else installs an identity view.
//
//cilkvet:hotpath
func (e *HM) lookupMiss(w *sched.Worker, ws *hmWorker, r *core.Reducer, mutable bool) (unsafe.Pointer, bool) {
	if w.Runtime() != e.Runtime() {
		panic(core.ErrForeignRuntime)
	}
	ws.tally.Lookups.Misses++
	ent := ws.user.lookup(r.Addr())
	if ent != nil && ent.owner == r {
		return ent.view, true
	}
	ws.tally.Lookups.ColdMisses++
	if !e.Dir.Valid(r) {
		return r.LeftmostView(), false
	}
	if ent != nil {
		// A stale entry from a retired occupant of this recycled address;
		// drop its in-flight view before installing r's identity view, and
		// retire every handle cache that still points at it.
		ws.user.remove(r.Addr())
		ws.tally.Merge.StaleViewDrops++
		w.BumpViewEpoch()
	}
	if r.ZeroIdentity() {
		if !mutable {
			return ws.user.zero.Lend(), true
		}
		if ws.user.zero.Lent() {
			// A handle cache of this worker may still map r to the zero
			// block; the bump sends its next lookup to the entry below.
			w.BumpViewEpoch()
		}
	}
	// Chaos point for a monoid whose Identity blows up: fired before the
	// entry is inserted, so a contained identity panic leaves the worker's
	// hypermap exactly as it was.
	faultinject.Check(faultinject.MonoidIdentity)
	start := metrics.Start(e.Timing)
	word := r.IdentityView()
	ws.tally.Overhead.Tick(metrics.ViewCreation, start)

	start = metrics.Start(e.Timing)
	ws.user.insert(r.Addr(), entry{view: word, owner: r})
	ws.tally.Overhead.Tick(metrics.ViewInsertion, start)
	return word, true
}

// --- sched.ReducerRuntime hooks ---

// WorkerInit implements sched.ReducerRuntime.  It runs once per worker
// while the runtime the engine serves is being constructed, before any of
// that runtime's tasks execute.
func (e *HM) WorkerInit(w *sched.Worker) {
	e.Base.WorkerInit(w)
	w.SetLocal(&hmWorker{user: newHashTable()})
}

// BeginTrace implements sched.ReducerRuntime.  A stolen frame starts with
// an empty user hypermap.  Traces nest when a worker helps at a stalled
// join, so the suspended trace's hypermap (non-empty in that case) is the
// trace token itself, which EndTrace restores.
func (e *HM) BeginTrace(w *sched.Worker) sched.Trace {
	ws := w.Local().(*hmWorker)
	saved := ws.user
	ws.user = newHashTable()
	w.BumpViewEpoch()
	return saved
}

// EndTrace implements sched.ReducerRuntime.  View transferal in the
// hypermap scheme deposits the user hypermap itself, then restores the
// suspended outer trace's hypermap.  A trace whose zero block was written
// through (a write through a read-only view) deposits nothing: its hypermap
// is dropped, the outer one restored, and the trace fails with
// core.ErrReadViewWritten.
func (e *HM) EndTrace(w *sched.Worker, tr sched.Trace) sched.Deposit {
	ws := w.Local().(*hmWorker)
	saved, _ := tr.(*hashTable)
	if ws.user.zero.Reclaim() {
		ws.user = nil
		e.finishTrace(w, ws, saved)
		panic(core.ErrReadViewWritten)
	}
	var dep *Deposit
	if ws.user.len() != 0 {
		start := metrics.Start(e.Timing)
		dep = &Deposit{views: ws.user}
		ws.user = nil
		ws.tally.Overhead.Tick(metrics.ViewTransferal, start)
	}
	e.finishTrace(w, ws, saved)
	if dep == nil {
		return nil
	}
	return dep
}

// finishTrace ends every EndTrace: the tally is flushed and the
// suspended outer trace's hypermap comes back (a root trace's worker keeps
// its emptied one, or gets a fresh one after a deposit or a drop).
func (e *HM) finishTrace(w *sched.Worker, ws *hmWorker, saved *hashTable) {
	e.Totals.Flush(&ws.tally)
	if saved != nil {
		ws.user = saved
	} else if ws.user == nil {
		ws.user = newHashTable()
	}
	w.BumpViewEpoch()
}

// Merge implements sched.ReducerRuntime: the hypermerge.  The worker walks
// the deposited hypermap; for every element it looks up the corresponding
// view in its own user hypermap and either reduces the pair (current ⊗
// deposited) or inserts the deposited entry wholesale.
func (e *HM) Merge(w *sched.Worker, tr sched.Trace, d sched.Deposit) {
	dep, _ := d.(*Deposit)
	if dep == nil {
		return
	}
	ws := w.Local().(*hmWorker)
	e.MergeInflight.Add(1)
	defer e.MergeInflight.Add(-1)
	start := metrics.Start(e.Timing)
	var reduces, adopts, staleDrops int64
	dep.views.forEach(func(addr spa.Addr, depEnt *entry) {
		if curEnt := ws.user.lookup(addr); curEnt != nil {
			if curEnt.owner == depEnt.owner {
				r := depEnt.owner
				// Chaos point for a monoid whose Reduce blows up
				// mid-hypermerge; views are heap-backed here, so a contained
				// reduce panic leaks nothing — the dropped deposit falls to
				// the garbage collector.
				faultinject.Check(faultinject.MonoidReduce)
				curEnt.view = r.ReduceViews(curEnt.view, depEnt.view)
				reduces++
				return
			}
			// Owner stamps differ: the address was recycled while one of
			// the views was in flight, and at most one owner can still be
			// registered.  Drop the stale side.
			staleDrops++
			if !e.Dir.Valid(depEnt.owner) {
				return
			}
			ws.user.remove(addr)
		}
		insStart := metrics.Start(e.Timing)
		ws.user.insert(addr, *depEnt)
		ws.tally.Overhead.Tick(metrics.ViewInsertion, insStart)
		adopts++
	})
	dep.views = nil
	w.BumpViewEpoch()
	t := &ws.tally
	t.Overhead.Tick(metrics.Hypermerge, start)
	if reduces > 1 {
		t.Overhead.TickN(metrics.Hypermerge, reduces-1)
	}
	t.Merge.Merges++
	t.Merge.SlotsMerged += reduces + adopts
	t.Merge.Reduces += reduces
	t.Merge.Adopts += adopts
	t.Merge.StaleViewDrops += staleDrops
	e.Totals.Flush(t)
}

// MergeRootDeposit implements sched.ReducerRuntime.  The walk runs under
// the engine's leftmost lock, taken once for the whole deposit
// (core.Base.Absorb), and folds each view with a bare Reduce.  Each entry's
// owner stamp resolves the reducer directly — no registry copy — and the
// reducer's validity flag drops views whose reducer was unregistered while
// they were in flight.  The walk counts into a tally of its own and flushes
// it once, in the deferred tail, so a panicking Reduce still publishes what
// it counted (Absorb has released the lock by then).
func (e *HM) MergeRootDeposit(d sched.Deposit) {
	dep, _ := d.(*Deposit)
	if dep == nil || dep.views == nil {
		return
	}
	e.MergeInflight.Add(1)
	var t metrics.Tally
	defer func() {
		e.Totals.Flush(&t)
		e.MergeInflight.Add(-1)
	}()
	e.Absorb(func(fold func(*core.Reducer, unsafe.Pointer)) {
		dep.views.forEach(func(addr spa.Addr, ent *entry) {
			if !e.Dir.Valid(ent.owner) {
				t.Merge.StaleViewDrops++
				return
			}
			fold(ent.owner, ent.view)
		})
	})
	dep.views = nil
}

// Discard implements sched.ReducerRuntime: release a deposit that will
// never be merged — the containment path for a job that panicked or was
// cancelled between a trace's EndTrace and its join.  Hypermap views are
// heap-backed and the deposit is the hash table itself, so dropping the
// reference is the whole release; the garbage collector reclaims the views.
// A nil or already-consumed deposit is a no-op.
func (e *HM) Discard(w *sched.Worker, d sched.Deposit) {
	dep, _ := d.(*Deposit)
	if dep == nil {
		return
	}
	dep.views = nil
}

// Quiescent implements sched.ReducerRuntime: verify that no job left engine
// state in flight.  The hypermap engine holds no pooled resources, so
// quiescence is just "no hypermerge executing and every worker's user
// hypermap empty".  It must only be called between jobs; the hypermaps are
// owner-local.
func (e *HM) Quiescent() error {
	if n := e.MergeInflight.Load(); n != 0 {
		return fmt.Errorf("hypermap: %d hypermerges still in flight", n)
	}
	for i := range e.Workers() {
		if n := e.WorkerViewCount(i); n != 0 {
			return fmt.Errorf("hypermap: worker %d holds %d views", i, n)
		}
	}
	return nil
}

// WorkerViewCount reports the number of views in worker i's user hypermap
// (diagnostic; it should be zero between runs).
func (e *HM) WorkerViewCount(i int) int {
	rt := e.Runtime()
	if rt == nil || i < 0 || i >= rt.Workers() {
		return 0
	}
	return rt.Worker(i).Local().(*hmWorker).user.len()
}

var _ core.Engine = (*HM)(nil)
