package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/spa"
)

// Engine is the interface both reducer mechanisms implement.  It extends
// the scheduler's ReducerRuntime hooks — root merge and quiescence check
// among them — with the OpenCilk-shaped surface — register, unregister, one
// lookup — and the instrumentation needed to reproduce the paper's overhead
// measurements.  Timing is chosen at construction (MMConfig.Timing), not
// toggled.
type Engine interface {
	sched.ReducerRuntime

	// Register creates a reducer backed by the given monoid.  The
	// reducer's leftmost view is initialised to the monoid's identity.
	// Register is safe to call concurrently, including from inside
	// parallel regions.
	Register(m Monoid) (*Reducer, error)
	// Unregister retires a reducer, recycling its slot address.  The reducer's
	// leftmost view (its value as of the unregister) remains readable; local
	// views still in flight inside a running parallel region are dropped
	// rather than merged, each by the worker that holds it (that worker may
	// keep reading it until its trace ends or its own lookup drops it from the
	// recycled address, but no other reducer — in particular none registered
	// at the recycled address — can ever observe it).  Unregister itself
	// touches no worker.  Unregister is safe to call concurrently; a second
	// Unregister of the same handle is a no-op even after the slot has been
	// recycled to a new reducer.
	Unregister(r *Reducer)
	// Registered reports the number of live reducers.  Both engines answer
	// from the directory's counters, under its lock.
	Registered() int
	// LookupWord is the engine's one lookup: it resolves the local view of
	// r for the execution context c as its packed single-word
	// representation (the slot word; convert it to the typed view pointer,
	// or take the interface value from Lookup).
	// mutable distinguishes accesses that may mutate the view (Handle.View)
	// from read-only peeks (Handle.ReadView), and decides one thing only:
	// whether a read-only first resolution is lent the zero block.  A
	// read-only resolution of a reducer the trace has no view of creates
	// none when the reducer's identity is the zero value of an
	// arena-eligible view type (Reducer.ZeroIdentity): it returns the
	// trace's zero block (spa.ZeroBlock), shared with every such reducer
	// the trace reads, and the trace fails with ErrReadViewWritten at
	// EndTrace if anything writes through it.  Every other first
	// resolution, mutable or not, creates an identity view, and every view
	// a trace creates is deposited and reduced alike.
	//
	// cache reports whether the caller may cache the word until c's view
	// epoch (c.ViewEpoch(), read after the call) moves.  Only c's own
	// worker bumps that epoch — wherever a view it resolved can die,
	// including inside this call — so the epoch read after the call is
	// the one the word is valid for.  cache is false for nil contexts
	// (serial code outside the scheduler, which sees the leftmost view)
	// and for retired handles, whose frozen leftmost value must be re-read
	// on every access.  prevEpoch is the epoch of the caller's invalidated
	// cache entry (zero on first touch); neither built-in engine reads it.
	LookupWord(c *sched.Context, r *Reducer, prevEpoch uint64, mutable bool) (word unsafe.Pointer, cache bool)

	// Workers reports the construction-time worker count: the runtime the
	// engine serves, the first one built over it, may have at most this
	// many workers, and a second runtime over it panics at construction.
	// Typed reducer handles size their per-worker view caches from it.
	Workers() int

	// Overheads returns the accumulated reduce-overhead breakdown.
	Overheads() metrics.Breakdown
	// ResetOverheads zeroes the overhead, lookup outcome and merge pipeline
	// counters.
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
	dir atomic.Pointer[Directory]
	// monoid sits here by value, beside the coordinates a merge has already
	// loaded, so reducing a pair is one load of the kernel and one call.
	monoid Monoid
	eng    Engine

	// leftmostMu is the engine's leftmost lock (Directory.leftmostMu), set
	// at registration, so a retired reducer still finds it.  It guards every
	// write of leftmost: SetValue, WithLeftmost and the root merges.
	leftmostMu *sync.Mutex
	// leftmost is the leftmost view's word; Value boxes it on the way out.
	// Every access is atomic: writers store it under leftmostMu, and a
	// reader loads it without the lock.
	leftmost unsafe.Pointer
}

// ID returns the reducer's unique identifier within its engine.
func (r *Reducer) ID() uint64 { return r.id }

// Addr returns the reducer's TLMM slot address (its tlmm_addr): the SPA
// view-array slot that holds the reducer's view pointer in every worker's
// TLMM region.
func (r *Reducer) Addr() spa.Addr { return r.addr }

// ArenaEligible reports whether the reducer's identity views are placed in
// the per-worker view arenas (fixed-size, pointer-free view type) rather
// than heap-allocated.
func (r *Reducer) ArenaEligible() bool { return r.monoid.arenaClass >= 0 }

// ZeroIdentity reports whether the reducer is arena-eligible and its
// monoid's identity is the zero value of its view type: a read-only first
// lookup of it is then served the trace's zero block (spa.ZeroBlock)
// instead of a view of its own.
func (r *Reducer) ZeroIdentity() bool { return r.monoid.zeroIdentity }

// Engine returns the engine the reducer is registered with.
func (r *Reducer) Engine() Engine { return r.eng }

// Value returns the reducer's leftmost view: outside a parallel region this
// is the reducer's current (final) value.
func (r *Reducer) Value() any { return r.monoid.box(r.LeftmostView()) }

// LeftmostView returns the leftmost view's word: what a lookup outside the
// scheduler, or through a retired handle, resolves to.  It is one atomic
// load and takes no lock, so no read waits behind another job's root
// merge.  The word is the view a root merge's Reduce may be updating in
// place: a consistent copy is WithLeftmost's.
func (r *Reducer) LeftmostView() unsafe.Pointer { return atomic.LoadPointer(&r.leftmost) }

// SetValue replaces the leftmost view under the engine's leftmost lock.  It
// is intended for initialising a reducer before a parallel region.  v must
// hold a non-nil pointer to the monoid's view type.
func (r *Reducer) SetValue(v any) {
	word := r.monoid.unbox(v)
	if word == nil {
		panic(fmt.Sprintf("core: reducer %d: SetValue of a nil view", r.id))
	}
	r.leftmostMu.Lock()
	defer r.leftmostMu.Unlock()
	atomic.StorePointer(&r.leftmost, word)
}

// IdentityView allocates a fresh identity view on the heap.  A monoid whose
// Identity returns nil is trapped here: a nil word in a slot means "empty".
func (r *Reducer) IdentityView() unsafe.Pointer {
	word := r.monoid.identity()
	if word == nil {
		panic(fmt.Sprintf("core: reducer %d: Identity returned a nil view", r.id))
	}
	return word
}

// ReduceViews runs the monoid on two view words, left serially preceding
// right, and returns the combined view's word.  Both engines and the root
// merge reduce through it, so a Reduce that returns nil is one named
// failure, contained at the job boundary like any monoid panic.
func (r *Reducer) ReduceViews(left, right unsafe.Pointer) unsafe.Pointer {
	word := r.monoid.reduce(left, right)
	if word == nil {
		panic(nilReduceError(r.id))
	}
	return word
}

// nilReduceError is the named failure of a Reduce that returned nil; its
// value is the reducer's id.  A one-word panic value keeps ReduceViews under
// the inlining budget (scripts/inline_check.sh pins its three call sites).
type nilReduceError uint64

func (e nilReduceError) Error() string {
	return fmt.Sprintf("core: reducer %d: Reduce returned a nil view", uint64(e))
}

// Retired reports whether the reducer has been unregistered: its validity
// flag is clear.
func (r *Reducer) Retired() bool { return r.dir.Load() == nil }

// fold folds a deposited view into the leftmost view in serial order
// (leftmost ⊗ view): the root merge's step, for either engine.  The caller
// holds the engine's leftmost lock.  The word is stored only when Reduce
// returned another one; a monoid that reduces in place, as Add does,
// stores nothing.
func (r *Reducer) fold(view unsafe.Pointer) {
	left := atomic.LoadPointer(&r.leftmost)
	if word := r.ReduceViews(left, view); word != left {
		atomic.StorePointer(&r.leftmost, word)
	}
}

// WithLeftmost runs f with the reducer's leftmost view while holding the
// engine's leftmost lock.  It is the defined read path for non-worker
// goroutines into a live session: root merges mutate the leftmost view in
// place under the same lock, so a value Value() returns could change under
// the caller, while a copy taken inside f is a consistent snapshot.  f must
// return without blocking and must not call back into the reducer or the
// engine: the lock is the whole engine's, so it also holds off every other
// reducer's root merge, SetValue and WithLeftmost until f returns.
func (r *Reducer) WithLeftmost(f func(view any)) {
	r.leftmostMu.Lock()
	defer r.leftmostMu.Unlock()
	f(r.monoid.box(atomic.LoadPointer(&r.leftmost)))
}

// Session couples a scheduler runtime with a reducer engine so that callers
// get the complete "run a parallel computation with reducers" workflow in
// one object: views produced by the root computation are merged into the
// reducers' leftmost views before Run returns.
//
// The goroutine inside Run, RunErr or RunContext is one of the session's
// workers: it runs its own root as worker 0, so a session of W workers is
// that goroutine plus a pool of W−1, and a Run in which nothing is stolen
// never leaves the caller's goroutine.  Concurrent callers take turns.
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
// configuration; cfg.Reducers is overwritten with eng.
func NewSessionWithConfig(cfg sched.Config, eng Engine) *Session {
	cfg.Reducers = eng
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
// leftmost views; see Runtime.Run.
func (s *Session) Run(fn func(*sched.Context)) error { return s.rt.Run(fn) }

// RunErr is Run with panic containment: a panic inside fn, or in a monoid
// running in the root merge, does not re-panic on the caller's goroutine
// but is returned as a *sched.PanicError carrying the original panic value
// and the captured stack, and the engine is quiescent and reusable
// afterwards; see Runtime.RunErr.
func (s *Session) RunErr(fn func(*sched.Context)) error { return s.rt.RunErr(fn) }

// RunContext is RunErr with cancellation: when ctx is cancelled the running
// job is aborted at its next fork, spawn, steal, or merge checkpoint and
// RunContext returns ctx.Err().  An aborted or failed job's partial root
// deposit is discarded, never merged, so the reducers' leftmost views only
// ever observe complete jobs; see Runtime.RunContext.
func (s *Session) RunContext(ctx context.Context, fn func(*sched.Context)) error {
	return s.rt.RunContext(ctx, fn)
}

// Quiescent verifies that neither the scheduler nor the engine has work or
// resources in flight; see Runtime.Quiescent.  Call it only between jobs.
func (s *Session) Quiescent() error { return s.rt.Quiescent() }

// Close shuts down the worker pool.
func (s *Session) Close() { s.rt.Close() }
