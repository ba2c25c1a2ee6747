package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// ErrForeignRuntime is the panic value of a lookup that reaches an engine
// from a context of a runtime the engine does not serve: an engine serves
// exactly one runtime, and a reducer's views live only on that runtime's
// workers.  A job that makes such a lookup fails, and errors.Is matches its
// error against this value.
var ErrForeignRuntime = errors.New("core: lookup from a runtime the engine does not serve")

// ErrReadViewWritten is the panic value of an EndTrace that finds the
// trace's zero block written: a read-only lookup (Handle.ReadView) of a
// reducer the trace had no view of was served the shared zero block, and
// the program wrote through it.  The trace's views are dropped, the block
// is zeroed again, and the job fails; errors.Is matches its error against
// this value.
var ErrReadViewWritten = errors.New("core: write through a read-only view")

// Base is what every reducer engine holds apart from its views: it
// registers and retires reducers in the directory, binds the engine to the
// one runtime it serves, and holds the one counter block every count of the
// engine goes through.  Skeleton embeds it and adds everything else both
// engines share — the trace hooks, the merges and the Quiescent walk — so
// what differs between the memory-mapped engine and the hypermap is the
// view store alone.
//
// The exported fields are the engine's to use and nobody else's.
type Base struct {
	// Dir is the reducer directory: Register, Unregister and Registered
	// take its lock; the lookup miss and the merges check validity with one
	// load.
	Dir *Directory
	// Timing, fixed at construction, adds durations to the overhead counts
	// (pair metrics.Start with Breakdown.Tick).
	Timing bool

	self    Engine
	label   string
	workers int
	// rt is the runtime the engine serves: the first whose WorkerInit
	// reached it, nil until then.
	rt atomic.Pointer[sched.Runtime]

	// The fields above are read-mostly (Dir and Timing on every first
	// lookup); the ones below are written by every merge and every flush,
	// so they come after, off the line the readers load.

	// MergeInflight counts hypermerges (Merge and MergeRootDeposit calls)
	// currently executing; part of the engine's quiescence invariant.
	MergeInflight atomic.Int64
	// Totals is where every worker flushes its metrics.Tally: at EndTrace
	// and at the end of every Merge and Discard it runs.  A merge that runs
	// off every worker counts into a Tally of its own and flushes it once.
	Totals metrics.Totals
}

// Register implements Engine: one address taken under the directory's lock.
func (b *Base) Register(m Monoid) (*Reducer, error) {
	return b.Dir.Register(b.self, m)
}

// Absorb runs walk, the root merge's fold, holding the engine's leftmost
// lock, taken once for the whole deposit.  The walk runs under the lock, so
// neither it nor a Reduce may take the lock again.  The lock is released on
// every exit: Reduce is the caller's code and may panic, and a lock left
// held would wedge every reducer of the engine.
func (b *Base) Absorb(walk func()) {
	b.Dir.leftmostMu.Lock()
	defer b.Dir.leftmostMu.Unlock()
	walk()
}

// Unregister implements Engine.  The directory's compare-and-swap performs
// the registry identity check: a double-unregister — even one racing a slot
// reuse — can never delete another live reducer's entry or free an address
// twice.  It touches no worker: a retired reducer's private views die
// where they are held, at their worker's next trace boundary or merge, or
// where that worker's lookup finds the address recycled and drops the view
// (bumping its own view epoch, so no handle cache keeps serving it).  A
// re-resolution of the retired handle yields the frozen leftmost value —
// unless the calling worker still holds the reducer's private view for the
// current trace, in which case that view (doomed to be dropped, never
// merged) remains readable until then; the owner stamp guarantees no OTHER
// reducer can ever observe it.
func (b *Base) Unregister(r *Reducer) {
	if r != nil && r.eng == b.self {
		b.Dir.Unregister(r)
	}
}

// unregisterAll is Unregister for reducers this engine registered, under one
// acquisition of the directory's lock: a job's batch retire.
func (b *Base) unregisterAll(rs ...*Reducer) { b.Dir.Unregister(rs...) }

// Registered returns the number of live reducers.
func (b *Base) Registered() int { return b.Dir.Live() }

// Workers implements Engine: the construction size, the most workers the
// runtime the engine serves may have.
func (b *Base) Workers() int { return b.workers }

// Runtime returns the runtime the engine serves, nil until one attaches.
func (b *Base) Runtime() *sched.Runtime { return b.rt.Load() }

// WorkerInit is the attach step each engine's WorkerInit starts with,
// before the worker's own state becomes its Local: the first runtime to
// reach it binds the engine.  A runtime with more workers than the engine
// was built for, or a second runtime, panics here, while it is being
// constructed.
func (b *Base) WorkerInit(w *sched.Worker) {
	rt := w.Runtime()
	if n := rt.Workers(); n > b.workers {
		panic(fmt.Sprintf("core: %s engine built for %d workers cannot serve a runtime of %d", b.label, b.workers, n))
	}
	if !b.rt.CompareAndSwap(nil, rt) && b.rt.Load() != rt {
		panic(fmt.Sprintf("core: %s engine already serves another runtime", b.label))
	}
}

// DirectoryStats returns a snapshot of the directory's counters.
func (b *Base) DirectoryStats() metrics.DirectoryStats { return b.Dir.Stats() }

// Overheads implements Engine.
func (b *Base) Overheads() metrics.Breakdown { return b.Totals.Snapshot().Overhead }

// ResetOverheads implements Engine.  It zeroes the overhead, lookup and
// merge counts and leaves the arena's (see metrics.Totals.Reset).
func (b *Base) ResetOverheads() { b.Totals.Reset() }

// FastPathStats returns a snapshot of the lookup outcome counters: every
// LookupWord that reached a worker's lookup structure is one hit or one
// miss.
func (b *Base) FastPathStats() metrics.LookupFastPathStats { return b.Totals.Snapshot().Lookups }

// MergeStats returns a snapshot of the hypermerge pipeline counters.
func (b *Base) MergeStats() metrics.MergePipelineStats { return b.Totals.Snapshot().Merge }

// ArenaStats returns the view-arena counters summed over the workers; they
// stay zero on an engine without arenas.
func (b *Base) ArenaStats() metrics.ArenaStats { return b.Totals.Snapshot().Arena }

// IdentityElisions is always 0, because no engine elides a view:
// MergeStats().IdentityElisions.  It is kept only until
// benchmark/workload.go stops reading it.
func (b *Base) IdentityElisions() int64 { return b.MergeStats().IdentityElisions }

// SampleMetrics implements metrics.Source: the merge pipeline, lookup,
// arena and directory series under the engine's label.  The counts are
// atomic loads and the directory's counters are read under its lock, which
// no lookup or merge takes — so sampling is safe at any moment of a run and
// never blocks a worker.
func (b *Base) SampleMetrics(emit func(metrics.MetricSample)) {
	t := b.Totals.Snapshot()
	metrics.EmitMergePipeline(emit, b.label, t.Merge)
	metrics.EmitLookups(emit, b.label, t.Lookups)
	metrics.EmitArena(emit, b.label, t.Arena)
	metrics.EmitDirectory(emit, b.label, b.DirectoryStats())
}
