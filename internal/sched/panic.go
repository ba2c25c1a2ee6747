package sched

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// This file implements the scheduler's job-boundary failure containment:
// the typed panic wrapper that carries a branch's original panic value and
// stack across joins to the Run caller, and the per-job cancellation token
// honoured at fork checkpoints.
//
// A panic anywhere inside a job — user code in any branch, a monoid inside
// the merge pipeline, or the reducer mechanism's own view transferal —
// unwinds to the executing worker's recovery point, where it is wrapped
// ONCE in a *PanicError capturing the panicking goroutine's stack.  From
// there it propagates by value: joins re-raise the wrapper itself (never a
// formatted string), so the value the caller finally observes — as a panic
// from Run, or as an error from RunErr/RunContext — still contains the
// original payload.  errors.Is/As reach through PanicError into error-typed
// payloads, so a typed fault injected five layers down is still matchable
// at the job boundary.

// PanicError is the error a contained panic surfaces as.  Value holds the
// original panic payload unmodified; Stack is the panicking goroutine's
// stack, captured at the recovery point nearest the panic site (frames
// between the panic and the worker's recover are still live there).
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: panic in parallel job: %v", e.Value)
}

// Unwrap exposes an error-typed panic payload to errors.Is/As chains; it
// returns nil for non-error payloads.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// errJobCancelled is the internal unwind token a cancellation checkpoint
// panics with.  It is deliberately not wrapped in a PanicError: it is not a
// failure, and the job boundary translates it to the context's error.
var errJobCancelled = errors.New("sched: job cancelled")

// wrapPanic wraps a recovered panic value for propagation across joins.
// It is called at the recovery point nearest the panic site so the captured
// stack still contains the panicking frames; values that are already
// wrapped (re-raised at an inner join) and the cancellation token pass
// through unchanged.
func wrapPanic(p any) any {
	if p == errJobCancelled {
		return p
	}
	if _, ok := p.(*PanicError); ok {
		return p
	}
	return &PanicError{Value: p, Stack: debug.Stack()}
}

// job is the per-submission state shared by every task a Run spawns: the
// cancellation flag checkpoints poll, and a progress counter the service
// watchdog samples.  A nil *job never cancels: Run passes one, and so does
// RunContext with a context that is never done.
type job struct {
	cancelled atomic.Bool
	// progress counts scheduler-visible progress events for this job:
	// dispatch and every stolen/helped task executed.  The service watchdog
	// declares a job stalled when the counter stops moving for a whole
	// window, so a long serial section that never forks is
	// indistinguishable from a stall (see ServiceConfig.Watchdog).
	progress atomic.Uint64
}

// checkCancelled panics with the cancellation token when the worker's
// current job has been cancelled.  It is the fork checkpoint: every Fork,
// ForkN and ParallelFor split passes through it, so a cancelled job unwinds
// at its next fork boundary, settles everything it already spawned (via the
// normal panic containment), and reports ctx.Err() instead of running to
// completion.
func (w *Worker) checkCancelled() {
	if j := w.curJob; j != nil && j.cancelled.Load() {
		panic(errJobCancelled)
	}
}

// Cancelled reports whether the job this context is executing has been
// cancelled (its RunContext caller's context expired).  Long serial
// sections that fork rarely can poll it to honour cancellation between
// checkpoints.
func (c *Context) Cancelled() bool {
	j := c.w.curJob
	return j != nil && j.cancelled.Load()
}
