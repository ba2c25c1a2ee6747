package core

import (
	"context"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/spa"
)

// Monoid defines a reducer's algebra: an associative binary operation
// Reduce with identity Identity.  Reduce may update and return its left
// argument in place; the runtime always passes the serially-earlier view on
// the left, so in-place reduction preserves the serial semantics.
//
// Views are stored word-packed: the engines keep only the data word of the
// view's interface value in their 16-byte SPA slots (or hypermap entries)
// and re-box it with a type word captured at registration.  Identity and
// Reduce must therefore produce non-nil views of one concrete type for the
// lifetime of the reducer; a monoid that changes its view type panics at
// the first unbox (see Reducer.UnboxView).
type Monoid interface {
	// Identity allocates a fresh identity view.
	Identity() any
	// Reduce combines two views, with left serially preceding right, and
	// returns the combined view (commonly left, updated in place).
	Reduce(left, right any) any
}

// ArenaMonoid is an optional extension of Monoid for monoids whose views
// are fixed-size and pointer-free.  The memory-mapping engine places such
// identity views inside the per-worker view arena instead of calling the
// heap allocator, and recycles them when the hypermerge folds them away —
// making the post-steal first lookup allocation-free.  The typed reducer
// adapter implements it automatically for eligible view types (see
// reducers.AdaptMonoid); hand-written untyped monoids may implement it
// directly.
//
// InitView must fully overwrite the ViewBytes() bytes at p with a complete
// identity view: p is 8-byte-aligned arena memory that may still hold a
// dead prior view.  ViewBytes must not exceed ArenaClassFor's largest
// class; larger monoids simply remain on the heap path.
type ArenaMonoid interface {
	Monoid
	// ViewBytes returns the exact byte size of one view.
	ViewBytes() uintptr
	// InitView constructs an identity view in place at p.
	InitView(p unsafe.Pointer)
}

// Engine is the interface both reducer mechanisms implement.  It extends
// the scheduler's ReducerRuntime hooks with the OpenCilk-shaped surface —
// register, unregister, one lookup — and the instrumentation needed to
// reproduce the paper's overhead measurements.  Timing and lookup counting
// are chosen at construction (MMConfig.Timing, CountLookups), not toggled.
type Engine interface {
	sched.ReducerRuntime

	// Register creates a reducer backed by the given monoid.  The
	// reducer's leftmost view is initialised to the monoid's identity.
	// Register is safe to call concurrently, including from inside
	// parallel regions.
	Register(m Monoid) (*Reducer, error)
	// Unregister retires a reducer, recycling its slot address.  The
	// reducer's leftmost view (its value as of the unregister) remains
	// readable; local views still in flight inside a running parallel
	// region are dropped rather than merged (a worker that already holds
	// such a view may keep reading it until its trace ends, but no other
	// reducer — in particular none registered at the recycled address —
	// can ever observe it).  Unregister is safe to call concurrently; a
	// second Unregister of the same handle is a no-op even after the slot
	// has been recycled to a new reducer.
	Unregister(r *Reducer)
	// Registered reports the number of live reducers.  Both engines answer
	// from the directory's atomic live counter, without taking a lock.
	Registered() int
	// LookupWord is the engine's one lookup: it resolves the local view of
	// r for the execution context c as its packed single-word
	// representation (the slot word; convert it to the typed view pointer,
	// or reassemble the interface value with Lookup or Reducer.BoxView).
	// mutable distinguishes accesses that may mutate the view (Handle.View)
	// from read-only peeks (Handle.ReadView): a mutable resolution sets the
	// slot's written bit, which exempts the view from the merge pipeline's
	// identity-view elision.
	//
	// newEpoch is the worker view epoch the resolution is valid for,
	// sampled before the probe on hit and miss alike, so a concurrent
	// invalidation can only make a caching caller conservatively
	// re-resolve.  Zero tells the caller not to cache the word — engines
	// return it for nil contexts (serial code outside the scheduler, which
	// sees the leftmost view) and for retired handles, whose frozen
	// leftmost value must be re-read on every access.  prevEpoch is the
	// epoch of the caller's invalidated cache entry (zero on first touch);
	// neither built-in engine reads it.
	LookupWord(c *sched.Context, r *Reducer, prevEpoch uint64, mutable bool) (word unsafe.Pointer, newEpoch uint64)
	// MergeRootDeposit folds the deposit returned by Runtime.Run into the
	// registered reducers' leftmost views.
	MergeRootDeposit(d sched.Deposit)
	// Quiescent verifies that no completed, failed, or cancelled job left
	// engine resources in flight: no hypermerge still executing, no pool
	// pages outstanding, no worker holding private views, and the view-
	// arena accounting balanced.  It must only be called between jobs; it
	// reads owner-local counters that are unsynchronised by design.  A
	// nil result is the engine's quiescence guarantee after failure
	// containment; a non-nil error describes the first leak found.
	Quiescent() error

	// Workers reports how many per-worker lookup structures the engine
	// currently maintains (the construction-time worker count, grown if a
	// larger runtime attaches).  Typed reducer handles size their
	// per-worker view caches from it.
	Workers() int

	// Overheads returns the accumulated reduce-overhead breakdown.
	Overheads() metrics.Breakdown
	// ResetOverheads zeroes the overhead and lookup outcome counters.
	ResetOverheads()
	// Name identifies the mechanism in experiment output.
	Name() string
}

// Reducer is one reducer hyperobject.  The same Reducer value is shared by
// all workers; what differs per worker is the local view the engine hands
// out at Lookup time.
type Reducer struct {
	id   uint64
	addr spa.Addr
	// page and slot are addr's decomposed SPA coordinates (addr.Page() and
	// addr.Slot()), precomputed at registration.  SlotsPerMap is not a power
	// of two, so the decomposition costs an integer division and a modulo;
	// hoisting it here means the lookup fast path probes the worker's
	// private maps with two plain array indexes (see MM.LookupWord).
	page, slot int32
	// dir is the validity flag: the directory r is registered in, nil once
	// unregistered.  It sits beside page and slot so Directory.Valid is one
	// load on a line the lookup has already touched.  Directory.Unregister
	// clears it by compare-and-swap before it releases the address (see
	// directory.go), so no successor at a recycled address ever coexists
	// with a predecessor that still reads valid.
	dir    atomic.Pointer[Directory]
	monoid Monoid
	eng    Engine

	// viewType is the type word shared by every view of this reducer,
	// captured at registration from the identity view; BoxView pairs it
	// with a stored slot word to reassemble the interface value.
	viewType unsafe.Pointer
	// arena is non-nil when the monoid supports in-place identity
	// construction (ArenaMonoid) and its views fit an arena size class;
	// arenaClass is that class, or -1 for the heap path.
	arena      ArenaMonoid
	arenaClass int8

	mu       sync.Mutex
	leftmost any
	retired  bool
}

// ID returns the reducer's unique identifier within its engine.
func (r *Reducer) ID() uint64 { return r.id }

// Addr returns the reducer's TLMM slot address (its tlmm_addr): the SPA
// view-array slot that holds the reducer's view pointer in every worker's
// TLMM region.
func (r *Reducer) Addr() spa.Addr { return r.addr }

// Monoid returns the reducer's monoid.
func (r *Reducer) Monoid() Monoid { return r.monoid }

// ArenaEligible reports whether the reducer's identity views are placed in
// the per-worker view arenas (fixed-size, pointer-free monoid) rather than
// heap-allocated.
func (r *Reducer) ArenaEligible() bool { return r.arenaClass >= 0 }

// Engine returns the engine the reducer is registered with.
func (r *Reducer) Engine() Engine { return r.eng }

// Value returns the reducer's leftmost view: outside a parallel region this
// is the reducer's current (final) value.
func (r *Reducer) Value() any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leftmost
}

// SetValue replaces the leftmost view.  It is intended for initialising a
// reducer before a parallel region.
func (r *Reducer) SetValue(v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.leftmost = v
}

// Retired reports whether the reducer has been unregistered.
func (r *Reducer) Retired() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retired
}

// absorb folds a deposited view into the leftmost view in serial order
// (leftmost ⊗ view).
func (r *Reducer) absorb(view any) {
	r.mu.Lock()
	r.leftmost = r.monoid.Reduce(r.leftmost, view)
	r.mu.Unlock()
}

func (r *Reducer) markRetired() {
	r.mu.Lock()
	r.retired = true
	r.mu.Unlock()
}

// WithLeftmost runs f with the reducer's leftmost view while holding the
// reducer's lock.  It is the defined read path for non-worker goroutines
// into a live session: merges mutate the leftmost view in place under the
// same lock, so a value Value() returns could change under the caller,
// while a copy taken inside f is a consistent snapshot.  f must return
// without blocking and must not call back into the reducer or the engine.
func (r *Reducer) WithLeftmost(f func(view any)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(r.leftmost)
}

// AbsorbView folds a deposited view into the reducer's leftmost view in
// serial order (leftmost ⊗ view).  It is exported for Engine
// implementations outside this package.
func AbsorbView(r *Reducer, view any) { r.absorb(view) }

// MarkRetired marks the reducer as unregistered.  It is exported for Engine
// implementations outside this package.
func MarkRetired(r *Reducer) { r.markRetired() }

// Session couples a scheduler runtime with a reducer engine so that callers
// get the complete "run a parallel computation with reducers" workflow in
// one object: views produced by the root computation are merged into the
// reducers' leftmost views when Run returns.
//
// The goroutine inside Run, RunErr or RunContext is one of the session's
// workers (sched.Config.CallerRuns): it runs its own root as worker 0, so a
// session of W workers is that goroutine plus a pool of W−1, and a Run in
// which nothing is stolen never leaves the caller's goroutine.
type Session struct {
	rt  *sched.Runtime
	eng Engine
}

// NewSession creates a runtime with the given number of workers wired to
// the given engine.
func NewSession(workers int, eng Engine) *Session {
	return NewSessionWithConfig(sched.Config{Workers: workers}, eng)
}

// NewSessionWithConfig creates a session from an explicit scheduler
// configuration; cfg.Reducers is overwritten with eng and cfg.CallerRuns is
// set.
func NewSessionWithConfig(cfg sched.Config, eng Engine) *Session {
	cfg.Reducers = eng
	cfg.CallerRuns = true
	rt := sched.New(cfg)
	return &Session{rt: rt, eng: eng}
}

// Runtime returns the underlying scheduler runtime.
func (s *Session) Runtime() *sched.Runtime { return s.rt }

// Engine returns the reducer engine.
func (s *Session) Engine() Engine { return s.eng }

// Workers returns the number of workers.
func (s *Session) Workers() int { return s.rt.Workers() }

// Run executes fn with the caller as one of the workers, waits for
// completion, and merges the root computation's views into the reducers'
// leftmost views.
func (s *Session) Run(fn func(*sched.Context)) error {
	d, err := s.rt.Run(fn)
	if err != nil {
		return err
	}
	s.eng.MergeRootDeposit(d)
	return nil
}

// RunErr is Run with panic containment: a panic inside fn does not re-panic
// on the caller's goroutine but is returned as a *sched.PanicError carrying
// the original panic value and the captured stack.  Whatever the outcome,
// the root deposit (if any) is settled — merged on success, discarded on
// failure — so the engine is quiescent and reusable afterwards.
func (s *Session) RunErr(fn func(*sched.Context)) error {
	return s.RunContext(context.Background(), fn)
}

// RunContext is RunErr with cancellation: when ctx is cancelled the running
// job is aborted at its next fork, spawn, steal, or merge checkpoint and
// RunContext returns ctx.Err().  An aborted or failed job's partial root
// deposit is discarded, never merged, so the reducers' leftmost views only
// ever observe complete jobs.
func (s *Session) RunContext(ctx context.Context, fn func(*sched.Context)) error {
	d, err := s.rt.RunContext(ctx, fn)
	if err != nil {
		s.eng.Discard(nil, d)
		return err
	}
	s.eng.MergeRootDeposit(d)
	return nil
}

// Quiescent verifies that neither the scheduler nor the engine has work or
// resources in flight; see Runtime.Quiescent and Engine.Quiescent.  Call it
// only between jobs.
func (s *Session) Quiescent() error {
	if err := s.rt.Quiescent(); err != nil {
		return err
	}
	return s.eng.Quiescent()
}

// Close shuts down the worker pool.
func (s *Session) Close() { s.rt.Close() }
