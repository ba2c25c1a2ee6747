package cilkm

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// Service is the resident multi-tenant runtime: one worker pool and one
// reducer engine absorbing request-shaped parallel jobs from any number of
// goroutines, with a FIFO admission queue, deadlines through the submission
// context, watchdog stall detection, and a graceful drain — the serving
// counterpart of the batch Session.  Create one with NewService, submit with
// Submit, shut down with Close:
//
//	svc := cilkm.NewService(cilkm.WithWorkers(8),
//	    cilkm.WithAdmitPolicy(cilkm.AdmitReject))
//	defer svc.Close()
//	ctx, cancel := context.WithTimeout(ctx, time.Second)
//	defer cancel()
//	h, err := svc.Submit(ctx, func(c *cilkm.Context, js *cilkm.JobSession) {
//	    sum := cilkm.NewAdd[int](js)
//	    c.ParallelFor(0, n, func(c *cilkm.Context, i int) { sum.Add(c, 1) })
//	    total = *sum.View(c) // in-trace read: every join has merged by now
//	})
//	if err == nil {
//	    err = h.Wait() // sum.Value() is also valid here: root merge precedes Wait
//	}
//
// Each job runs with its own JobSession — a per-tenant registration scope
// over the shared engine — so reducers live exactly as long as their job
// and one tenant never observes another's views.
type Service struct {
	eng core.Engine
	svc *sched.Service
}

// JobHandle tracks one submitted job: Wait for its outcome, Cancel it, or
// select on Done.
type JobHandle = sched.JobHandle

// JobSession is the per-job reducer scope handed to a submitted closure:
// register reducers through it exactly as through an Engine.  When the job
// settles — every branch it spawned has unwound, not merely the handle
// completing — the session is retired: its reducers are unregistered in
// one sweep (their final values remain readable) and their directory slots
// recycle to later jobs, with the reducers' validity flags — cleared before
// an address is released — guaranteeing stale cross-job views are dropped,
// never merged.
type JobSession = core.JobSession

// ServiceStats is a point-in-time snapshot of the service counters.
type ServiceStats = sched.ServiceStats

// AdmitPolicy selects what Submit does when the admission queue is full.
type AdmitPolicy = sched.AdmitPolicy

// Admission policies.
const (
	// AdmitBlock blocks the submitter until space frees up (the default).
	AdmitBlock = sched.AdmitBlock
	// AdmitReject fails the submission immediately with ErrOverloaded.
	AdmitReject = sched.AdmitReject
)

// ErrOverloaded is returned by Submit under the reject policy when the
// admission queue is full.
var ErrOverloaded = sched.ErrOverloaded

// ErrStalled is the sentinel a watchdog-cancelled job's error wraps.
var ErrStalled = sched.ErrStalled

// StallError is the error a watchdog-cancelled job completes with: the
// exceeded window plus an all-goroutine stack dump captured at detection.
type StallError = sched.StallError

// WithQueueBound bounds the service's admission queue (jobs admitted but
// not yet executing); zero or unset selects 4× the worker count.  Only
// NewService reads it.
func WithQueueBound(n int) Option {
	return func(o *options) { o.svc.Queue = n }
}

// WithAdmitPolicy selects the overload policy (default AdmitBlock).  Only
// NewService reads it.
func WithAdmitPolicy(p AdmitPolicy) Option {
	return func(o *options) { o.svc.Admit = p }
}

// WithWatchdog enables the stall watchdog: a job making no scheduler-visible
// progress (dispatch, steals, merges) for a whole window is cancelled with a
// *StallError carrying a stack dump.  Size the window for request-shaped
// fork-join jobs — a legitimate serial section longer than the window is
// flagged too.  Only NewService reads it.
func WithWatchdog(window time.Duration) Option {
	return func(o *options) { o.svc.Watchdog = window }
}

// NewService creates a resident service from the same functional options as
// New (mechanism, workers, engine knobs, metrics exporter) plus the service
// options (queue bound, admission policy, watchdog).  All its workers are
// pool goroutines that take jobs in submission order; how long an idle one
// keeps looking for the next job before it parks is measured by the
// scheduler, not configured (internal/sched/idle.go).
func NewService(opts ...Option) *Service {
	o := buildOptions(opts)
	eng := reducers.NewEngine(o.mech, o.workers, o.eng)
	svc := sched.NewService(sched.Config{Workers: o.workers, Reducers: eng}, o.svc)
	if o.exporter != nil {
		if src, ok := core.Engine(eng).(MetricSource); ok {
			o.exporter.Register("engine", src)
		}
		o.exporter.Register("sched", svc.Runtime())
		o.exporter.Register("service", svc)
		o.exporter.Register("faultinject", metrics.SourceFunc(faultinject.SampleMetrics))
	}
	return &Service{eng: eng, svc: svc}
}

// JobOption configures one Submit call.
type JobOption func(*sched.JobSpec)

// WithOnDone runs f exactly once when the job's handle completes (the
// moment Wait would unblock).  For a cancelled job this can be before the
// job's reducer session is retired — retirement waits for every branch to
// unwind.  f must not block.
func WithOnDone(f func(err error)) JobOption {
	return func(s *sched.JobSpec) { s.OnDone = f }
}

// Submit admits fn for execution on the shared worker pool and returns a
// handle to wait on.  Safe from any number of goroutines.  fn receives the
// scheduler context and the job's own JobSession for reducer registration.
// The submission context governs the job end to end: cancelling it evicts a
// queued job immediately and aborts a running one at its next fork, steal,
// or merge checkpoint.  A deadline is a context.WithTimeout context: it
// bounds the job's total latency, queue wait included, and its expiry
// completes the handle with context.DeadlineExceeded.
//
// Submit's error reports admission failures only (ErrClosed, ErrOverloaded,
// the context's error); execution errors — panics contained as *PanicError,
// deadline misses, stalls — are reported by the handle's Wait.
func (s *Service) Submit(ctx context.Context, fn func(*Context, *JobSession), opts ...JobOption) (*JobHandle, error) {
	js := core.NewJobSession(s.eng)
	spec := sched.JobSpec{
		Fn: func(c *Context) { fn(c, js) },
	}
	if len(opts) > 0 {
		spec = withJobOptions(spec, opts)
	}
	// Retire the tenant's reducers at settlement, not completion: a
	// cancelled job's handle completes while branches already on workers
	// keep unwinding to their next checkpoint, and those stragglers must
	// not find their directory slots recycled to another tenant.  At
	// settlement no strand can run again; a successful job's views were
	// merged before its handle completed, so the final values are already
	// in the (still readable) leftmost views, and a failed or cancelled
	// job's in-flight views are dropped by the engines' unregister
	// semantics, never merged.
	spec.OnSettle = js.Retire
	h, err := s.svc.Submit(ctx, spec)
	if err != nil {
		// Admission failed: the job will never run, so close its scope.
		js.Retire()
	}
	return h, err
}

// withJobOptions applies opts to a copy of spec, and Submit calls it only
// when there are options.  An option is a call to an unknown function, so
// the spec whose address it receives moves to the heap; passing the spec by
// value keeps Submit's own copy on its stack.
func withJobOptions(spec sched.JobSpec, opts []JobOption) sched.JobSpec {
	for _, o := range opts {
		o(&spec)
	}
	return spec
}

// Stats snapshots the service counters (queue depth, rejections, deadline
// misses, watchdog cancellations, jobs running).
func (s *Service) Stats() ServiceStats { return s.svc.Stats() }

// Engine returns the shared reducer engine (for reading retired reducers'
// values or wiring instrumentation); register job reducers through the
// JobSession, not here.
func (s *Service) Engine() Engine { return s.eng }

// Runtime returns the underlying scheduler runtime, for its statistics and
// metrics.  Its Run refuses to run anything: jobs enter through Submit.
func (s *Service) Runtime() *sched.Runtime { return s.svc.Runtime() }

// Close drains and shuts the service down: admission stops (concurrent
// Submit calls deterministically return ErrClosed), every admitted job
// finishes, the pool stops, and pool-wide quiescence is verified —
// scheduler accounting plus the engine's page/arena/view leak check.  The
// first leak found is returned.  Close is idempotent.
func (s *Service) Close() error { return s.svc.Close() }
