package reducers

import (
	"fmt"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/sched"
)

// TypedMonoid is the algebra of a reducer over a concrete view type V: an
// associative Reduce with identity Identity, the left argument serially
// earlier and commonly updated in place.  It is turned into the word-level
// core.Monoid the engines run exactly once, at registration, so the engines
// stay mechanism-focused and monomorphic while user code never writes a
// type assertion.
type TypedMonoid[V any] interface {
	// Identity allocates a fresh identity view.
	Identity() *V
	// Reduce combines two views, left serially preceding right, and
	// returns the combined view (commonly left, updated in place).
	//
	// In a root merge, Reduce runs under its engine's leftmost lock, which
	// every reducer of the engine shares: root merges of one engine run
	// one at a time, also across concurrent service jobs.  So Reduce must
	// not call Snapshot, SetView or SetValue on a reducer of its own
	// engine, nor Reducer.WithLeftmost: that deadlocks.  Reading another
	// reducer's Value or Peek takes no lock and is allowed.
	Reduce(left, right *V) *V
}

// AdaptMonoid builds the core.Monoid the engines operate on from a typed
// monoid.  Handles do this internally; it is exported for callers that
// register typed monoids through the raw core.Engine API.  View types that
// are fixed-size and pointer-free (numbers, bools, flat structs — the Add,
// Min, Max, And and Or reducers) are arena-eligible (core.NewMonoid decides),
// which lets the memory-mapping engine construct and recycle their identity
// views inside its per-worker view arenas: the post-steal first lookup then
// performs no heap allocation at all.
func AdaptMonoid[V any](m TypedMonoid[V]) core.Monoid {
	return core.NewMonoid(m)
}

// TypedFuncMonoid adapts a pair of typed functions into a TypedMonoid, for
// one-off custom reducers that do not warrant a named monoid type.
type TypedFuncMonoid[V any] struct {
	IdentityFn func() *V
	ReduceFn   func(left, right *V) *V
}

// Identity implements TypedMonoid.
func (f TypedFuncMonoid[V]) Identity() *V { return f.IdentityFn() }

// Reduce implements TypedMonoid.
func (f TypedFuncMonoid[V]) Reduce(left, right *V) *V { return f.ReduceFn(left, right) }

// viewSlot is one worker's entry in a handle's typed view cache: the typed
// view pointer and two worker-view-epoch stamps — wepoch marks the epoch
// the resolution is valid for writing (it is the trace's own view), repoch
// the epoch it is valid for reading.  A mutable resolution sets both; a
// read-only one sets repoch alone, because it may be the trace's zero block,
// so a View after a ReadView revisits the engine once, which creates the
// trace's own view if the zero block was all it had.  Encoding writability
// as its own epoch rather than a bool keeps the View hit check to one epoch
// load and one compare — no separate flag load on the hottest path.  The
// entry is padded to a cache line so adjacent workers' slots never share one.
// Each slot is read and written only by its worker's goroutine, and so is
// the worker's view epoch that invalidates it.  The engine serves one
// runtime, so the slot's index names the worker and no context is stored.
//
//cilkvet:nocopy
type viewSlot[V any] struct {
	wepoch uint64
	repoch uint64
	view   *V
	_      [40]byte
}

// Handle is the generic core every typed reducer embeds: a registered
// reducer plus a per-worker typed view cache keyed on the worker's view
// epoch.
//
// View resolves the calling context's local view of the reducer as a *V.
// Steady state — the same worker touching the same reducer again with no
// intervening trace boundary, merge or stale-view drop on its worker —
// costs one epoch load and one compare, then returns the typed pointer
// directly: no interface dispatch, no runtime type assertion, and no
// allocation.  The cache is invalidated by the worker view epoch, which
// the worker alone bumps wherever one of its views can die: at trace
// boundaries, after hypermerges, and where its lookup drops a retired
// reducer's view from a recycled address.  An unregister kills no view
// itself, so a cached *V can never outlive the untyped view it shadows.  On
// a miss the handle resolves through the engine's LookupWord, converts the
// word once, and re-stamps the slot with the worker's epoch as it stands
// after the lookup.
//
// A lookup the engine marks uncacheable (a retired handle's) is never
// cached.
type Handle[V any] struct {
	eng core.Engine
	r   *core.Reducer
	// mm and hm are the devirtualized miss paths, captured by a type switch
	// at construction: exactly one is non-nil (Directory.Register records
	// the concrete engine), and a cache miss calls its LookupWord directly
	// instead of dispatching through the Engine interface.
	mm *core.MM
	hm *hypermap.HM
	// slots is the typed view cache, indexed by worker ID: one per worker
	// the engine may serve.
	slots []viewSlot[V]
}

// NewHandle registers a typed monoid with the engine and returns the typed
// handle for it, panicking on registration failure like the prebuilt
// reducer constructors.  Most callers use the prebuilt reducers (Add, Min,
// List, ...); NewHandle is for building new typed reducer kinds by
// embedding.
func NewHandle[V any](eng core.Engine, m TypedMonoid[V]) Handle[V] {
	return newHandle[V](eng, m)
}

// TryNewHandle is NewHandle returning registration failures as errors
// instead of panicking, for callers that register reducers at runtime and
// must degrade gracefully (registration can fail for resource reasons,
// e.g. TLMM address-space exhaustion under ModelAddressSpace).
func TryNewHandle[V any](eng core.Engine, m TypedMonoid[V]) (Handle[V], error) {
	r, err := eng.Register(AdaptMonoid[V](m))
	if err != nil {
		return Handle[V]{}, err
	}
	h := Handle[V]{
		eng:   eng,
		r:     r,
		slots: make([]viewSlot[V], eng.Workers()),
	}
	// r.Engine() is the concrete engine the directory registered r with,
	// even when eng is a registration facade such as core.JobSession, so a
	// handle registered through a per-job session still captures the
	// devirtualized miss path.  Registration itself went through the facade,
	// which is where its scoping lives; lookups are facade-free by design.
	switch conc := r.Engine().(type) {
	case *core.MM:
		h.mm = conc
	case *hypermap.HM:
		h.hm = conc
	}
	return h, nil
}

func newHandle[V any](eng core.Engine, m TypedMonoid[V]) Handle[V] {
	h, err := TryNewHandle[V](eng, m)
	if err != nil {
		panic(fmt.Sprintf("reducers: register: %v", err))
	}
	return h
}

// View returns the local view of the reducer for context c as a typed
// pointer, for reading or mutation.  With a nil context (serial code
// outside the scheduler) it returns the leftmost view, so typed reducers
// degrade to ordinary variables.
//
// The steady-state hit is an epoch load, one compare and the typed
// deref — nothing else.  Everything that is not that shape (nil contexts,
// cache misses, the first View after a ReadView) lives in the outlined
// viewMiss.
// View itself does not inline into its caller — the outlined miss call
// alone takes 57 of the compiler's 80-node budget, and -gcflags=-m=2 prices
// the body at 110 — so an update loop makes one direct call to the
// monomorphized View per access, and what `make inline-check` pins is that
// the interior of that call is flat: WorkerID and ViewEpoch inline into it.
//
// If the trace has no view of the reducer yet — none, or only ReadView's
// zero block — the miss creates it, and every later View or ReadView of the
// reducer in the trace returns it.  Every view a trace creates is merged at
// the trace's join.
//
//cilkvet:hotpath
func (h *Handle[V]) View(c *sched.Context) *V {
	if c != nil {
		// The id comes off the context, not the worker, so the slot fetch
		// does not wait on the c.w load the epoch compare needs.
		if id := c.WorkerID(); uint(id) < uint(len(h.slots)) {
			if s := &h.slots[id]; s.wepoch == c.ViewEpoch() {
				return s.view
			}
		}
	}
	return h.viewMiss(c, true)
}

// ReadView returns the local view for reading only.  Once the trace has a
// view of the reducer, ReadView returns that view, the pointer View
// returns.  Before that, what it returns reads as the monoid identity:
//
//   - for a view type that is arena-eligible (fixed-size and pointer-free)
//     with an all-zero identity — Add, Or, Min and Max over numbers — it
//     is the trace's zero block, the runtime's shared zero page, and no
//     view is created.  Distinct reducers may get the same block;
//   - for any other view type (And's true identity, lists, maps) it is a
//     new identity view of the trace's own, created and later merged
//     exactly as View's would be.
//
// Use View to write.  A write through a ReadView result that is the
// trace's own view is merged like a write through View.  A write into the
// zero block is trapped when the trace ends: the job fails with
// core.ErrReadViewWritten, and the trace's updates are dropped.
//
//cilkvet:hotpath
func (h *Handle[V]) ReadView(c *sched.Context) *V {
	if c != nil {
		if id := c.WorkerID(); uint(id) < uint(len(h.slots)) {
			// A cached view serves reads regardless of how it was resolved:
			// repoch is stamped by both resolution modes.
			if s := &h.slots[id]; s.repoch == c.ViewEpoch() {
				return s.view
			}
		}
	}
	return h.viewMiss(c, false)
}

// viewMiss is the outlined slow half of View (mutable) and ReadView: a
// cache miss, or a View of an entry that was resolved read-only and must
// revisit the engine once, since the read-only word may be the zero block.
//
//cilkvet:hotpath
func (h *Handle[V]) viewMiss(c *sched.Context, mutable bool) *V {
	if c == nil {
		return h.r.Value().(*V)
	}
	var word unsafe.Pointer
	var cache bool
	if h.mm != nil {
		word, cache = h.mm.LookupWord(c, h.r, 0, mutable)
	} else {
		word, cache = h.hm.LookupWord(c, h.r, 0, mutable)
	}
	tv := (*V)(word)
	if cache {
		// A cacheable word came from a worker of the runtime the engine
		// serves, so its id has a slot.  The epoch is read after the
		// lookup, which may have bumped it (a stale-view drop).  Worker
		// epochs start at 1, so it is never zero, and zero stays free to
		// mean "not writable" below.  A mutable resolution is readable
		// too, so it takes both stamps.  A read-only one may be the zero
		// block and must not satisfy a later View hit: it clears the write
		// stamp (a still-valid wepoch would have hit in ReadView, so
		// nothing valid is discarded).
		epoch := c.ViewEpoch()
		wepoch := uint64(0)
		if mutable {
			wepoch = epoch
		}
		s := &h.slots[c.WorkerID()]
		s.wepoch, s.repoch, s.view = wepoch, epoch, tv
	}
	return tv
}

// Peek returns the reducer's current leftmost view as a typed pointer:
// outside a parallel region this is the reducer's final value.
func (h *Handle[V]) Peek() *V { return h.r.Value().(*V) }

// Snapshot copies the reducer's current leftmost view and returns the copy.
// It is the defined fast read path into a live session for non-worker
// goroutines (an HTTP handler sampling a counter mid-job): the copy is taken
// under the engine's leftmost lock, which every root merge into a leftmost
// view of the engine holds, so the returned value is a consistent snapshot
// of some prefix of the merges — never a half-merged torn read, which a
// Peek (no lock) could observe while a root merge runs Reduce in place.
// Because the lock is the engine's, a Snapshot waits for a root merge of
// any reducer of the engine, and a Reduce must not call it (TypedMonoid).
// Deposits a running job has not yet merged are not included.  The copy is
// shallow: for view types holding pointers or slices (List reducers), the
// referenced cells are shared with the live view and may still be appended
// to — snapshot-read such reducers only between jobs, or keep V flat.
func (h *Handle[V]) Snapshot() V {
	var out V
	h.r.WithLeftmost(func(view any) {
		out = *view.(*V)
	})
	return out
}

// SetView replaces the leftmost view.  Use it only outside parallel
// regions.
func (h *Handle[V]) SetView(v *V) { h.r.SetValue(v) }

// Reducer exposes the underlying untyped reducer handle.
func (h *Handle[V]) Reducer() *core.Reducer { return h.r }

// Engine returns the engine the reducer is registered with.
func (h *Handle[V]) Engine() core.Engine { return h.eng }

// Close unregisters the reducer; the leftmost view remains readable
// through Peek (and the wrappers' Value methods).
func (h *Handle[V]) Close() { h.eng.Unregister(h.r) }
