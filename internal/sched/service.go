package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// This file turns the batch fork-join runtime into a resident multi-tenant
// service.  A Service owns a Runtime and adds the serving machinery the
// one-job-at-a-time Run API lacks: a bounded FIFO admission queue with a
// configurable overload policy, cancellation by the submission context
// (deadlines included) at the existing fork/steal/merge checkpoints, a
// watchdog that cancels jobs whose steal/merge progress stops, and a
// graceful drain on Close that stops admission, finishes every admitted job,
// and verifies pool-wide quiescence.  Jobs are dispatched by the pool's own
// workers: an idle worker pops the admission queue after its steal sweep, so
// dispatch needs no extra goroutine and scales with idle capacity.

// AdmitPolicy selects what Submit does when the admission queue is full.
type AdmitPolicy uint8

const (
	// AdmitBlock blocks the submitter until queue space frees up, the
	// submission context is cancelled, or the service closes.  This is the
	// classic backpressure policy and the default.
	AdmitBlock AdmitPolicy = iota
	// AdmitReject fails the submission immediately with ErrOverloaded.
	AdmitReject
)

// String returns the policy name.
func (p AdmitPolicy) String() string {
	switch p {
	case AdmitBlock:
		return "block"
	case AdmitReject:
		return "reject"
	default:
		return fmt.Sprintf("admit-policy(%d)", uint8(p))
	}
}

// ErrOverloaded is returned by Submit under AdmitReject when the admission
// queue is full.
var ErrOverloaded = errors.New("sched: service overloaded")

// ErrStalled is the sentinel every watchdog cancellation wraps; classify a
// job error with errors.Is(err, ErrStalled).
var ErrStalled = errors.New("sched: job stalled")

// StallError is the error a watchdog-cancelled job completes with: the
// stall window that elapsed without scheduler-visible progress and a stack
// dump of every goroutine captured at detection time (the diagnostic for
// "where is my job stuck").
type StallError struct {
	// Window is the configured watchdog window the job exceeded.
	Window time.Duration
	// Stack is a runtime.Stack(..., true) capture taken when the stall was
	// detected.
	Stack []byte
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("sched: job made no steal/merge progress for %v", e.Window)
}

// Unwrap links every StallError to ErrStalled.
func (e *StallError) Unwrap() error { return ErrStalled }

// ServiceConfig configures NewService.
type ServiceConfig struct {
	// Queue bounds the admission queue (jobs admitted but not yet taken by
	// a worker).  Zero selects 4× the worker count.
	Queue int
	// Admit selects the overload policy (default AdmitBlock).
	Admit AdmitPolicy
	// Watchdog, when positive, enables the stall watchdog: a job whose
	// progress counter (dispatch, stolen/helped tasks) does
	// not move for a whole window is cancelled with a *StallError carrying
	// an all-goroutine stack dump.  The criterion is scheduler progress, so
	// a legitimate serial section longer than the window is flagged too —
	// size the window for request-shaped fork-join jobs.  Zero disables.
	Watchdog time.Duration
}

// JobSpec describes one submission.
type JobSpec struct {
	// Fn is the job's root closure, executed on the worker pool exactly
	// like a Run root.  Required.
	Fn func(*Context)
	// OnDone, when non-nil, runs exactly once when the handle completes —
	// after the result (or error) is recorded, before Done unblocks — on
	// whichever goroutine completed the job.  It must not block or call
	// back into the handle's Wait.
	OnDone func(err error)
	// OnSettle, when non-nil, runs exactly once when the job settles: when
	// no strand of the job can execute again — the worker has fully
	// unwound (for dispatched jobs) or the job was evicted before dispatch.
	// For a cancelled job this is later than OnDone: the handle completes
	// the moment the cancellation is delivered, while branches already on
	// workers keep unwinding to their next checkpoint.  Resources the job's
	// code itself uses — the cilkm facade's per-job reducer session above
	// all — must be released here, not in OnDone, or a straggling strand
	// could observe another tenant's reuse of them.  It must not block.
	OnSettle func()
}

// Job handle states.
const (
	jobStateNew int32 = iota
	jobStateQueued
	jobStateRunning
	jobStateEvicted // cancelled or refused before a worker took it
)

// JobHandle tracks one submitted job.  The submitter keeps it to wait for
// (or cancel) the job; the service and the finishing worker complete it.
//
// Completion and settlement are distinct: the handle completes when its
// outcome is decided (result merged, or a cancellation/deadline/stall
// delivered), which is when Wait unblocks; a cancelled job settles slightly
// later, once every branch it spawned has unwound and its views are
// discarded.  Drain and quiescence wait for settlement, so a Close after
// Wait never races a job's teardown.
type JobHandle struct {
	svc      *Service
	fn       func(*Context)
	job      job
	queuedAt int64 // nanotime just before the queue push (idle.go)

	// prev and next link the handle into the service's admission queue
	// while it is queued, and into its running ring from dispatch until it
	// settles; guarded by svc.mu.
	prev, next *JobHandle

	// state is the queue-lifecycle state (jobState*).  It leaves New and
	// Queued only under svc.mu, so the dispatch/cancel race has exactly one
	// winner.
	state atomic.Int32
	// completed is the once-only completion claim: whoever wins the CAS
	// delivers the outcome.
	completed atomic.Bool
	// cause records the first cancellation cause (deadline, caller cancel,
	// stall) for the settle path to report.
	cause atomic.Pointer[causeBox]

	// err is written exactly once before done is closed; read it only
	// after Done is closed (Wait and Err do this).
	err  error
	done chan struct{}

	// stopWatch detaches the context watcher.  It is set before the handle
	// is published to the queue and called once at completion.  watchMu
	// orders its store before the watcher's own cancellation, which can fire
	// (an already-expired context) before context.AfterFunc has returned.
	stopWatch func() bool
	watchMu   sync.Mutex
	onDone    func(error)
	onSettle  func()
	// settleOnce guards onSettle: cancellation racing dispatch means two
	// paths can each believe they retired the job.
	settleOnce atomic.Bool

	// lastProgress and lastActive are the watchdog's bookkeeping, written
	// under svc.mu.
	lastProgress uint64
	lastActive   time.Time
}

type causeBox struct{ err error }

// Done returns a channel closed when the job's outcome is decided.
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the job completes and returns its error: nil on
// success, context.DeadlineExceeded on a missed deadline of the submission
// context, its other error on caller cancellation, a *StallError on
// watchdog cancellation, or a *PanicError when the job's code panicked.
func (h *JobHandle) Wait() error {
	<-h.done
	return h.err
}

// Err returns the job's outcome error once Done is closed, and nil before.
func (h *JobHandle) Err() error {
	select {
	case <-h.done:
		return h.err
	default:
		return nil
	}
}

// Cancel asks the job to stop: a queued job completes immediately with
// context.Canceled and never runs; a running job is cancelled at its next
// fork/steal/merge checkpoint.  Cancel after completion is a no-op.
func (h *JobHandle) Cancel() { h.cancel(context.Canceled) }

// storeCause records the first cancellation cause; later causes lose.
func (h *JobHandle) storeCause(err error) {
	h.cause.CompareAndSwap(nil, &causeBox{err: err})
}

// causeErr returns the recorded cancellation cause, or nil.
func (h *JobHandle) causeErr() error {
	if b := h.cause.Load(); b != nil {
		return b.err
	}
	return nil
}

// claimCompletion reserves the right to deliver the handle's outcome.
func (h *JobHandle) claimCompletion() bool {
	return h.completed.CompareAndSwap(false, true)
}

// deliver publishes the outcome and unblocks Wait.  It must be called
// exactly once, by the claimCompletion winner.
func (h *JobHandle) deliver(err error) {
	h.err = err
	if h.stopWatch != nil {
		h.stopWatch()
	}
	if h.onDone != nil {
		func() {
			defer func() { _ = recover() }()
			h.onDone(err)
		}()
	}
	close(h.done)
}

// runOnSettle fires the settlement hook exactly once.  It must be called
// only from a path that proves no strand of the job can run again: the
// worker's settle (dispatched jobs) or an eviction that won the state CAS
// against dispatch (never-dispatched jobs).
func (h *JobHandle) runOnSettle() {
	if h.onSettle == nil || !h.settleOnce.CompareAndSwap(false, true) {
		return
	}
	func() {
		defer func() { _ = recover() }()
		h.onSettle()
	}()
}

// cancel is the single entry point for every asynchronous cancellation:
// caller Cancel, context expiry (deadline or cancellation) and watchdog
// stall.  Exactly one of three things happens: the job is evicted before
// ever running, the running job's handle completes early (the job unwinds
// and settles in the background), or — if the outcome was already
// delivered — nothing.
func (h *JobHandle) cancel(cause error) {
	h.storeCause(cause)
	if faultinject.Enabled() {
		faultinject.Perturb(faultinject.ServiceDeadline)
	}
	h.job.cancelled.Store(true)
	s := h.svc
	s.mu.Lock()
	// Queued, the job leaves the queue now; still admitting, Submit observes
	// the eviction and never queues it.  Either way it never runs.
	queued := h.state.CompareAndSwap(jobStateQueued, jobStateEvicted)
	if queued {
		s.dequeueLocked(h)
	}
	evicted := queued || h.state.CompareAndSwap(jobStateNew, jobStateEvicted)
	s.mu.Unlock()
	// A running job unwinds at its checkpoints, and its worker discards the
	// deposit when it settles; the handle completes now either way.
	if h.claimCompletion() {
		s.countCancel(cause)
		h.deliver(cause)
	}
	if !evicted {
		return
	}
	h.runOnSettle() // never dispatched, so eviction is settlement
	if queued {
		// Admitted, so Close has waited for it until now.
		s.mu.Lock()
		s.unsettled--
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// settleFromWorker is called by the worker that finished executing the job
// root (normally, by panic, or by cancellation unwind).  The first to claim
// the handle decides its outcome: a cancellation that claimed it first
// wants no result after Done (the RunContext "outran its cancellation"
// contract), so the root's deposit is discarded instead of merged.  The
// worker settles the root (settleRoot), retires the job from the service's
// in-flight accounting, and then delivers the outcome it claimed.
func (h *JobHandle) settleFromWorker(w *Worker, d Deposit, p any) {
	claimed := h.claimCompletion()
	var cause error
	if p != nil || !claimed {
		cause = h.causeErr()
	}
	// Merge before the outcome is visible, so a submitter that observes Done
	// reads fully merged reducer values, and before settle-time teardown,
	// which may unregister the job's reducers.
	err := w.settleRoot(d, p, cause)
	h.runOnSettle()
	// Settle before deliver: an OnDone hook, or a submitter returning from
	// Wait, observes the job fully retired in Stats.
	h.svc.jobSettled(h)
	if claimed {
		h.deliver(err)
	}
}

// ServiceStats is a point-in-time snapshot of the service counters.
type ServiceStats struct {
	Admitted        int64 // jobs accepted into the queue
	Rejected        int64 // submissions failed with ErrOverloaded (AdmitReject)
	Settled         int64 // jobs fully settled (success, failure, or cancel)
	DeadlineMisses  int64 // jobs cancelled by deadline expiry
	WatchdogCancels int64 // jobs cancelled by the stall watchdog
	QueueDepth      int64 // jobs currently queued
	Running         int64 // jobs currently executing
	QueueCapacity   int64 // configured bound
}

// Service is a resident multi-tenant runtime: a shared worker pool
// accepting concurrent job submissions from many goroutines.  Create one
// with NewService; submit with Submit; shut down with Close.
type Service struct {
	rt  *Runtime
	cfg ServiceConfig

	mu   sync.Mutex
	cond *sync.Cond
	// queue is the sentinel of the FIFO admission queue, a ring linked
	// through JobHandle.prev/next: queue.next is the oldest job.  An evicted
	// job is unlinked when it is evicted, so every entry is live.  running
	// is the sentinel of the ring of dispatched jobs not yet settled, which
	// the watchdog walks.  A handle is on one ring, or on neither.
	queue     JobHandle
	running   JobHandle
	unsettled int // admitted jobs not yet settled or evicted
	closed    bool
	closeErr  error
	closeDone chan struct{}

	// queuedLive mirrors the queue's length so the workers' pre-park
	// recheck and the pop fast path stay lock-free.
	queuedLive atomic.Int64
	runningCnt atomic.Int64

	stopWatchdog chan struct{}

	admitted        atomic.Int64
	rejected        atomic.Int64
	settled         atomic.Int64
	deadlineMisses  atomic.Int64
	watchdogCancels atomic.Int64
}

// NewService creates a resident service over a runtime of its own, built
// from rc, whose workers are all pool goroutines that take jobs from the
// admission queue.  Its jobs enter through Submit only: Run on that runtime
// returns an error.
func NewService(rc Config, cfg ServiceConfig) *Service {
	if rc.Workers <= 0 {
		rc.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * rc.Workers
	}
	s := &Service{
		cfg:          cfg,
		closeDone:    make(chan struct{}),
		stopWatchdog: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.queue.prev, s.queue.next = &s.queue, &s.queue
	s.running.prev, s.running.next = &s.running, &s.running
	s.rt = start(rc, s)
	if cfg.Watchdog > 0 {
		go s.watchdog()
	}
	return s
}

// Runtime returns the underlying scheduler runtime.
func (s *Service) Runtime() *Runtime { return s.rt }

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats {
	return ServiceStats{
		Admitted:        s.admitted.Load(),
		Rejected:        s.rejected.Load(),
		Settled:         s.settled.Load(),
		DeadlineMisses:  s.deadlineMisses.Load(),
		WatchdogCancels: s.watchdogCancels.Load(),
		QueueDepth:      s.queuedLive.Load(),
		Running:         s.runningCnt.Load(),
		QueueCapacity:   int64(s.cfg.Queue),
	}
}

// Submit admits a job for execution on the worker pool and returns a handle
// to wait on.  It is safe to call from any number of goroutines.  The
// submission context governs the job end to end: cancelling it (or its
// deadline expiring — context.WithTimeout bounds a job's total latency,
// queue wait included) evicts a queued job immediately and cancels a running
// one at its next checkpoint.
//
// Submit's error reports an admission failure only: ErrClosed after (or
// racing) Close, ErrOverloaded under AdmitReject with a full queue, the
// context's error when ctx died while blocked for space, or an injected
// admission fault.  A handle returned with a nil error always completes —
// job execution errors are reported by Wait.
func (s *Service) Submit(ctx context.Context, spec JobSpec) (*JobHandle, error) {
	if spec.Fn == nil {
		return nil, errors.New("sched: Submit with nil JobSpec.Fn")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if faultinject.Enabled() {
		if err := faultinject.Error(faultinject.ServiceAdmit); err != nil {
			s.rejected.Add(1)
			return nil, err
		}
	}
	h := &JobHandle{
		svc:      s,
		fn:       spec.Fn,
		done:     make(chan struct{}),
		onDone:   spec.OnDone,
		onSettle: spec.OnSettle,
	}
	// Arm the context watcher before the handle becomes reachable by any
	// cancellation path, so deliver never races the field store.
	if ctx.Done() != nil {
		h.watchMu.Lock()
		h.stopWatch = context.AfterFunc(ctx, func() {
			h.watchMu.Lock() // wait for stopWatch: deliver reads it
			h.watchMu.Unlock()
			h.cancel(ctx.Err())
		})
		h.watchMu.Unlock()
	}

	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			h.abandonPreQueue(ErrClosed)
			return nil, ErrClosed
		}
		if h.state.Load() == jobStateEvicted {
			// The deadline or the caller's context fired while we were
			// waiting for space: the handle already completed with the
			// cause; report admission success so the caller reads the
			// outcome from the handle, exactly as if eviction had won a
			// moment after queueing.
			s.mu.Unlock()
			return h, nil
		}
		if int(s.queuedLive.Load()) < s.cfg.Queue {
			break
		}
		switch s.cfg.Admit {
		case AdmitReject:
			s.rejected.Add(1)
			s.mu.Unlock()
			h.abandonPreQueue(ErrOverloaded)
			return nil, ErrOverloaded
		default: // AdmitBlock
			stop := context.AfterFunc(ctx, func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
			s.cond.Wait()
			stop()
			if err := ctx.Err(); err != nil {
				if s.closed {
					// Deterministic contract: a Submit that raced Close
					// reports ErrClosed even if its context also died.
					s.mu.Unlock()
					h.abandonPreQueue(ErrClosed)
					return nil, ErrClosed
				}
				s.mu.Unlock()
				h.abandonPreQueue(err)
				return nil, err
			}
		}
	}
	// cancel evicts only under s.mu, so the job is still New here.
	h.state.Store(jobStateQueued)
	h.queuedAt = nanotime()
	h.linkBefore(&s.queue)
	s.queuedLive.Add(1)
	s.unsettled++
	s.admitted.Add(1)
	s.mu.Unlock()
	// Publish-then-signal: the queue store above happens-before this load
	// of rt.parked (both sides use sequentially-consistent atomics), so a
	// worker registering as parked either sees the queued job in its
	// recheck or is woken here — no lost wakeup.
	s.rt.signalWork(0)
	return h, nil
}

// abandonPreQueue completes a handle whose submission failed before it was
// ever queued, releasing its context resources.  The admission error is
// reported by Submit itself; the handle just mirrors it for uniformity.
func (h *JobHandle) abandonPreQueue(err error) {
	h.state.Store(jobStateEvicted)
	if h.claimCompletion() {
		h.deliver(err)
	}
	h.runOnSettle()
}

// linkBefore appends h to the ring whose sentinel is ring: ring.prev is its
// newest entry.  Caller holds svc.mu.
func (h *JobHandle) linkBefore(ring *JobHandle) {
	h.prev, h.next = ring.prev, ring
	h.prev.next, ring.prev = h, h
}

// unlink takes h off the ring it is on.  Caller holds svc.mu.
func (h *JobHandle) unlink() {
	h.prev.next, h.next.prev = h.next, h.prev
	h.prev, h.next = nil, nil
}

// dequeueLocked takes a queued job out of the admission queue, which frees a
// place for a blocked submitter.  Caller holds s.mu.
func (s *Service) dequeueLocked(h *JobHandle) {
	h.unlink()
	s.queuedLive.Add(-1)
	s.cond.Broadcast()
}

// pop takes the oldest queued job, transitioning it to running.  Called by
// idle workers; the nil fast path is one atomic load.
func (s *Service) pop() *JobHandle {
	if s.queuedLive.Load() == 0 {
		return nil
	}
	s.mu.Lock()
	h := s.queue.next
	if h == &s.queue {
		s.mu.Unlock() // another worker took it
		return nil
	}
	h.state.Store(jobStateRunning) // every queued job is live: cancel unlinks under s.mu
	s.dequeueLocked(h)
	h.linkBefore(&s.running)
	s.runningCnt.Add(1)
	s.mu.Unlock()
	if faultinject.Enabled() {
		faultinject.Perturb(faultinject.ServiceDispatch)
	}
	h.job.progress.Add(1) // dispatch counts as progress
	return h
}

// jobSettled retires a dispatched job from the in-flight accounting once
// every branch has unwound and its deposit is settled.
func (s *Service) jobSettled(h *JobHandle) {
	s.settled.Add(1)
	s.mu.Lock()
	h.unlink()
	s.runningCnt.Add(-1)
	s.unsettled--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// countCancel classifies a delivered cancellation for the metrics.
func (s *Service) countCancel(cause error) {
	switch {
	case errors.Is(cause, context.DeadlineExceeded):
		s.deadlineMisses.Add(1)
	case errors.Is(cause, ErrStalled):
		s.watchdogCancels.Add(1)
	}
}

// watchdog periodically scans running jobs for stalled progress counters.
func (s *Service) watchdog() {
	period := s.cfg.Watchdog / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopWatchdog:
			return
		case <-ticker.C:
			s.scanStalls(time.Now())
		}
	}
}

// scanStalls cancels every running job whose progress counter has not moved
// for a full watchdog window, with an all-goroutine stack dump in its
// *StallError.
func (s *Service) scanStalls(now time.Time) {
	var stalled []*JobHandle
	s.mu.Lock()
	for h := s.running.next; h != &s.running; h = h.next {
		p := h.job.progress.Load()
		if h.lastActive.IsZero() || p != h.lastProgress {
			h.lastProgress = p
			h.lastActive = now
			continue
		}
		if now.Sub(h.lastActive) >= s.cfg.Watchdog && !h.completed.Load() {
			stalled = append(stalled, h)
		}
	}
	s.mu.Unlock()
	for _, h := range stalled {
		h.cancel(&StallError{Window: s.cfg.Watchdog, Stack: allStacks()})
	}
}

// allStacks captures every goroutine's stack.
func allStacks() []byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Close drains and shuts the service down: admission stops first (every
// Submit from this point deterministically returns ErrClosed, including
// submitters blocked for queue space), every admitted job runs to
// completion (or to its own cancellation), the worker pool is stopped once
// every job has settled, and pool-wide quiescence is verified
// (Runtime.Quiescent: the scheduler's own accounting, then the reducer
// mechanism's).  The first leak found (or a non-quiescent pool) is returned
// as an error.  Close is idempotent; concurrent calls all return the first
// close's verdict.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.closeDone
		return s.closeErr
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	if faultinject.Enabled() {
		faultinject.Perturb(faultinject.ServiceDrain)
	}

	// Wait for every admitted job to settle; the workers are still
	// dispatching the queued ones.
	s.mu.Lock()
	for s.unsettled > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()

	close(s.stopWatchdog)
	s.rt.Close()

	err := s.rt.Quiescent()
	s.mu.Lock()
	s.closeErr = err
	s.mu.Unlock()
	close(s.closeDone)
	return err
}
