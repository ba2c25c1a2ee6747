package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config configures a Runtime.
type Config struct {
	// Workers is the number of worker goroutines (processor surrogates).
	// Zero means runtime.GOMAXPROCS(0).
	Workers int
	// Seed seeds the per-worker random number generators used for victim
	// selection.  Zero selects a fixed default, making schedules
	// reproducible for a given worker count and interleaving.
	Seed uint64
	// Reducers is the reducer mechanism to notify about steals, view
	// transferal and merges.  Nil disables reducer support.
	Reducers ReducerRuntime
}

// Stats aggregates scheduler counters across workers.
type Stats struct {
	Forks          int64 // Fork calls
	Steals         int64 // successful steals
	FailedSteals   int64 // steal sweeps that found nothing
	StalledJoins   int64 // forks whose continuation was stolen
	HelpedTasks    int64 // tasks executed while waiting at a join
	TasksExecuted  int64 // stolen or injected tasks executed
	MergeTasks     int64 // always 0: kept only until benchmark/workload.go stops reading it
	RootTasks      int64 // Run invocations
	MaxDequeDepth  int64 // high-water mark of any deque
	ParallelForSpl int64 // splits performed by ParallelFor
}

// Runtime is a work-stealing fork-join scheduler instance.  A root enters
// it one of two ways: the goroutine inside Run, RunErr or RunContext runs
// it inline as worker 0, or, on a Service's runtime, an idle worker pops
// the next job from the admission queue.
type Runtime struct {
	workers  []*Worker
	reducers ReducerRuntime

	quit chan struct{}
	// wake carries one token per wake-up owed to a parked worker: the
	// signal's nanotime if the woken worker is to sample it (signalWork).
	wake   chan int64
	parked atomic.Int32
	// caller is held by the goroutine that is worker 0 while it runs a root.
	caller   sync.Mutex
	started  sync.WaitGroup
	stopped  sync.WaitGroup
	closed   atomic.Bool
	inflight atomic.Int64

	// service is the Service that built this runtime (NewService), nil for
	// a batch runtime; set before the workers start.  Idle workers poll its
	// admission queue after an empty steal sweep, so job dispatch rides the
	// scheduling loop instead of a dedicated dispatcher goroutine.
	service *Service

	// parks and unparks count actual worker park/unpark transitions (a
	// registration that backs out at the recheck is not a park).
	parks   atomic.Int64
	unparks atomic.Int64

	// wakeCost is the pool's estimate of one thief wake-up in ns (idle.go),
	// and wakesSent counts the tokens signalWork has sent.
	wakeCost  atomic.Int64
	wakesSent atomic.Int64

	// longRoots counts the roots running now that were predicted at least
	// warmCapNS long (runRoot); while it is nonzero a thief that runs out
	// of work stays warm (idle.go).
	longRoots atomic.Int32

	roots atomic.Int64 // Run invocations (Stats.RootTasks)
}

// ErrClosed is returned by Run after Close has been called.
var ErrClosed = errors.New("sched: runtime is closed")

// errServiceRuntime is returned by Run on a Service's runtime, whose workers
// are all pool goroutines: its jobs go through Submit.
var errServiceRuntime = errors.New("sched: Run on a service's runtime: use Service.Submit")

// New creates a runtime whose worker 0 is the goroutine inside Run, RunErr
// or RunContext, and starts the other Workers−1 as a pool.
func New(cfg Config) *Runtime { return start(cfg, nil) }

// start creates a runtime and starts its pool: every worker but 0 for a
// batch runtime, every worker for s's.
func start(cfg Config, s *Service) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x9E3779B97F4A7C15
	}
	red := cfg.Reducers
	if red == nil {
		red = nopReducerRuntime{}
	}
	rt := &Runtime{
		reducers: red,
		quit:     make(chan struct{}),
		wake:     make(chan int64, cfg.Workers), // one token per worker: see signalWork
		service:  s,
	}
	rt.workers = make([]*Worker, cfg.Workers)
	for i := range rt.workers {
		rt.workers[i] = newWorker(rt, i, cfg.Seed+uint64(i)*0x9E3779B97F4A7C15+1)
	}
	for _, w := range rt.workers {
		rt.reducers.WorkerInit(w)
	}
	pool := rt.workers[1:]
	if s != nil {
		pool = rt.workers
	}
	rt.started.Add(len(pool))
	rt.stopped.Add(len(pool))
	for _, w := range pool {
		go w.loop()
	}
	rt.started.Wait()
	return rt
}

// Workers returns the number of workers.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// Worker returns the i-th worker (for metrics and reducer bookkeeping).
func (rt *Runtime) Worker(i int) *Worker { return rt.workers[i] }

// Reducers returns the configured reducer mechanism, or nil if none.
func (rt *Runtime) Reducers() ReducerRuntime {
	if _, ok := rt.reducers.(nopReducerRuntime); ok {
		return nil
	}
	return rt.reducers
}

// Run executes fn and blocks until it — and every branch it forked — has
// completed and the root trace's views have been folded into the reducers'
// leftmost (user-visible) views (ReducerRuntime.MergeRootDeposit).
//
// The calling goroutine is worker 0 until Run returns.  Concurrent callers
// take turns for that identity, so their jobs run one after another; a
// Service is the API for concurrent tenants.  Run called from inside a job
// of the same runtime waits for its own caller and never returns.  On a
// Service's runtime Run runs nothing and returns an error: submit the job.
//
// A panic in the job, or in its root merge, is re-raised here as the
// *PanicError wrapped at the recovery point nearest it, typed payload
// (PanicError.Value) and stack intact.  By then every branch of the job has
// been settled and its views discarded, so the engine is reusable even if
// the caller recovers.
func (rt *Runtime) Run(fn func(*Context)) error {
	err := rt.run(context.Background(), fn, nil)
	if pe, ok := err.(*PanicError); ok {
		panic(pe)
	}
	return err
}

// RunErr is Run with the panic contained at the job boundary: a panic
// anywhere in the job — any branch, any worker, the merge pipeline, the
// root merge — is returned as a *PanicError carrying the original panic
// value and the panicking goroutine's stack, instead of re-panicking on the
// caller's goroutine.  The failed job is fully settled before RunErr
// returns: every branch it forked has completed or been reclaimed and every
// undeposited view has been discarded, so the runtime (and the reducer
// engine behind it) is immediately reusable.
func (rt *Runtime) RunErr(fn func(*Context)) error {
	return rt.RunContext(context.Background(), fn)
}

// RunContext is RunErr with cooperative cancellation.  When ctx is
// cancelled the job is asked to stop: every fork checkpoint (Fork, ForkN,
// ParallelFor splits) and every not-yet-started stolen branch
// observes the token and unwinds, already-running serial sections run to
// their next checkpoint (or may poll Context.Cancelled), and RunContext
// waits for the job to fully settle before returning ctx.Err() — it never
// abandons a running job, so a cancelled runtime is quiescent, not leaking.
// A job that completes in the same instant its context is cancelled has its
// result discarded and still reports ctx.Err().  As in Run, callers take
// turns for worker 0, and a call from inside a job never returns.
func (rt *Runtime) RunContext(ctx context.Context, fn func(*Context)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var jb *job // nil, as Run passes, unless ctx can be cancelled
	if ctx.Done() != nil {
		// The caller runs the job, so it cannot select on ctx.Done()
		// meanwhile: the context sets the flag itself.
		jb = &job{}
		stop := context.AfterFunc(ctx, func() { jb.cancelled.Store(true) })
		defer stop()
	}
	return rt.run(ctx, fn, jb)
}

// run is the root path behind Run, RunErr and RunContext: the caller takes
// worker 0, waiting its turn, runs fn inline and settles it there.  It
// returns the root's outcome or an admission error.
func (rt *Runtime) run(ctx context.Context, fn func(*Context), jb *job) error {
	if rt.service != nil {
		return errServiceRuntime
	}
	rt.caller.Lock()
	defer rt.caller.Unlock()
	if rt.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	rt.roots.Add(1)
	rt.inflight.Add(1)
	defer rt.inflight.Add(-1)
	w := rt.workers[0]
	d, p := w.runRoot(fn, jb)
	// A job that outran its cancellation honours the context contract: no
	// result after Done.
	return w.settleRoot(d, p, ctx.Err())
}

// settleRoot settles a root on w, the worker that ran it, and returns the
// root's outcome: a failed root (p non-nil; its views are already
// discarded) reports its contained panic, cancellation translated with
// cause; a root whose job is cancelled (cause non-nil) hands its deposit d
// back to the mechanism; any other folds d into the leftmost views, a panic
// in the merge contained as the root's failure.  Both ways a root enters
// the runtime settle here — Run before it gives worker 0 up, a service job
// before its handle completes — and after the wake gate has timed the root.
func (w *Worker) settleRoot(d Deposit, p any, cause error) (err error) {
	switch {
	case p != nil:
		return containedError(p, cause)
	case cause != nil:
		w.rt.reducers.Discard(w, d)
		return cause
	}
	defer func() {
		if p := recover(); p != nil {
			err = containedError(wrapPanic(p), nil)
		}
	}()
	w.rt.reducers.MergeRootDeposit(d)
	return nil
}

// containedError translates a job's contained panic value into the
// error RunErr/RunContext return: the cancellation token becomes the
// context's error, anything else is the already-wrapped *PanicError.
func containedError(p any, cancelErr error) error {
	if p == errJobCancelled {
		if cancelErr != nil {
			return cancelErr
		}
		return context.Canceled
	}
	if pe, ok := p.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: p}
}

// Quiescent reports whether the runtime holds no trace of any job: no
// Run/RunErr/RunContext call is in flight, every worker's deque is empty,
// and the reducer mechanism's own check (ReducerRuntime.Quiescent) passes.
// A panicked or cancelled job must leave the runtime quiescent by the time
// its Run variant returns; chaos tests assert this between jobs.  Call it
// only between jobs.
func (rt *Runtime) Quiescent() error {
	if n := rt.inflight.Load(); n != 0 {
		return fmt.Errorf("sched: %d jobs still in flight", n)
	}
	for _, w := range rt.workers {
		if n := w.dq.size(); n != 0 {
			return fmt.Errorf("sched: worker %d deque still holds %d tasks", w.id, n)
		}
	}
	return rt.reducers.Quiescent()
}

// Close shuts the pool down and waits for it to exit.  A Run that already
// holds worker 0 finishes on it alone; every later one returns ErrClosed.
func (rt *Runtime) Close() {
	if rt.closed.Swap(true) {
		return
	}
	close(rt.quit)
	rt.stopped.Wait()
}

// Stats aggregates counters across workers.
func (rt *Runtime) Stats() Stats {
	var s Stats
	s.RootTasks = rt.roots.Load()
	for _, w := range rt.workers {
		s.Forks += w.nForks.Load()
		s.Steals += w.nSteals.Load()
		s.FailedSteals += w.nFailedSteals.Load()
		s.StalledJoins += w.nStalledJoins.Load()
		s.HelpedTasks += w.nHelped.Load()
		s.TasksExecuted += w.nTasks.Load()
		s.ParallelForSpl += w.nPForSplits.Load()
		if d := w.maxDeque.Load(); d > s.MaxDequeDepth {
			s.MaxDequeDepth = d
		}
	}
	return s
}

// ResetStats zeroes all per-worker counters.
func (rt *Runtime) ResetStats() {
	rt.roots.Store(0)
	for _, w := range rt.workers {
		w.nForks.Store(0)
		w.nSteals.Store(0)
		w.nFailedSteals.Store(0)
		w.nStalledJoins.Store(0)
		w.nHelped.Store(0)
		w.nTasks.Store(0)
		w.nPForSplits.Store(0)
		w.maxDeque.Store(0)
	}
}

// signalWork wakes one parked worker, if any.  Callers publish their work
// (the deque push, the queued job) before calling it; a parker registers in
// rt.parked before re-checking for work.  Under sequentially-consistent
// atomics one side always observes the other, so no wakeup is lost and
// workers never need a timed poll.  That argument is about work only a woken
// worker can run, a queued service job.  A pushed continuation is
// not: its owner pops and runs what nobody stole, so the wake gate (idle.go),
// which skips this call for a short root's pushes, withholds parallelism,
// never progress, and leaves the protocol untouched.
//
// sent is the token: the signal's time if the woken worker is to sample it
// (idle.go), else 0.  Few are timed: the clock read keeps the pusher's deque
// non-empty 40 ns longer just when a parking thief rechecks it.
func (rt *Runtime) signalWork(sent int64) {
	if rt.parked.Load() == 0 {
		return
	}
	select {
	case rt.wake <- sent:
		rt.wakesSent.Add(1)
	default:
		// The buffer already holds one token per worker; every parked
		// worker is guaranteed a wakeup, so dropping this one is safe.
	}
}

// serviceReady reports whether the runtime's service has a queued job;
// parking workers include it in their registered recheck so a Submit racing
// a park is never lost.
func (rt *Runtime) serviceReady() bool {
	return rt.service != nil && rt.service.queuedLive.Load() > 0
}

// workAvailable reports whether any worker holds a stealable task.  Parking
// workers call it after registering in rt.parked to close the race with a
// concurrent push; their own deques are empty, between tasks and at a
// stalled join alike (waitJoin).
func (rt *Runtime) workAvailable() bool {
	for _, w := range rt.workers {
		if w.dq.size() > 0 {
			return true
		}
	}
	return false
}
