package sched

// This file defines the narrow interface through which a reducer mechanism
// plugs into the scheduler.  The scheduler knows nothing about hypermaps,
// SPA maps or monoids; it only tells the reducer runtime when execution
// departs from the serial order (a steal begins a new trace), when a stolen
// branch finishes (its views must be transferred out), when a join must
// fold a finished branch's views back in (a hypermerge), and when a root
// finishes (its views fold into the reducers' leftmost ones).  Both the
// memory-mapping mechanism (internal/core) and the hypermap baseline
// (internal/hypermap) implement this interface, so measured differences
// between them isolate the reducer mechanism itself.

// Trace is an opaque handle for the reducer state of one maximal sequence
// of instructions that a worker executes in serial order between steals
// (a "trace" in the Cilk literature).  It is whatever the mechanism must
// restore when the trace ends — for both engines the suspended outer
// trace's views, saved by BeginTrace — and the scheduler only hands it
// back to EndTrace and Merge.
type Trace any

// Deposit is an opaque handle for the set of views a completed stolen
// branch leaves behind for its join (the result of view transferal).
type Deposit any

// ReducerRuntime is implemented by a reducer mechanism.
type ReducerRuntime interface {
	// WorkerInit is called once per worker before it executes any task,
	// allowing the mechanism to set up per-worker state (for the
	// memory-mapping mechanism: the worker's TLMM reducer area).
	WorkerInit(w *Worker)

	// BeginTrace is called when a worker begins executing work outside the
	// serial order of its current trace: the root task, a stolen
	// continuation, or a task run while helping at a join.  The worker's
	// view state must afterwards be empty.
	BeginTrace(w *Worker) Trace

	// EndTrace is called exactly once per BeginTrace, when the work it
	// began completes or fails, with the token BeginTrace returned.  The
	// mechanism performs view transferal: it packages the worker's current
	// views into a Deposit (published in shared memory) and restores the
	// view state the token saved.  An EndTrace that panics (a failed
	// transferal) must already have restored that state and released what
	// the trace held: the scheduler contains the panic as the trace's
	// failure and does not call EndTrace again.
	EndTrace(w *Worker, tr Trace) Deposit

	// Merge is called by the worker that owns a join when a deposited
	// branch must be folded into the worker's current views.  The worker's
	// views hold the serially-earlier updates, so the merge must compute
	// current ⊗ deposit for every reducer present in the deposit (the
	// hypermerge).
	Merge(w *Worker, tr Trace, d Deposit)

	// Discard is called when a Deposit produced by EndTrace will never be
	// merged: its job panicked or was cancelled before the join's Merge, or
	// the root merge, could run.  The mechanism must release every
	// resource the deposit holds (pagepool pages, arena view blocks) so
	// that an aborted job leaves the engine quiescent and reusable.  w is
	// the worker performing the abort; the scheduler always passes one.  A
	// nil or already-consumed deposit must be a no-op, so double discards
	// along overlapping failure paths are safe.
	Discard(w *Worker, d Deposit)

	// MergeRootDeposit folds the deposit of a successful root trace into
	// the registered reducers' leftmost views, in serial order.  The
	// scheduler calls it on the worker that ran the root, before the
	// root's Run caller or job handle learns the outcome; a panic in it is
	// contained as the root's failure.  A nil deposit must be a no-op.
	MergeRootDeposit(d Deposit)

	// Quiescent verifies that no completed, failed or cancelled job left
	// the mechanism holding resources, and describes the first leak found.
	// Runtime.Quiescent ends with it, so it is called only between jobs
	// and may read owner-local state unsynchronised.
	Quiescent() error
}

// nopReducerRuntime is used when no reducer mechanism is configured.
type nopReducerRuntime struct{}

func (nopReducerRuntime) WorkerInit(*Worker)              {}
func (nopReducerRuntime) BeginTrace(*Worker) Trace        { return nil }
func (nopReducerRuntime) EndTrace(*Worker, Trace) Deposit { return nil }
func (nopReducerRuntime) Merge(*Worker, Trace, Deposit)   {}
func (nopReducerRuntime) Discard(*Worker, Deposit)        {}
func (nopReducerRuntime) MergeRootDeposit(Deposit)        {}
func (nopReducerRuntime) Quiescent() error                { return nil }
