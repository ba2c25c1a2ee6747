// Package cilkm is the top-level facade of this reproduction of
// "Memory-Mapping Support for Reducer Hyperobjects" (Lee, Shafi, Leiserson,
// SPAA 2012).
//
// It re-exports the pieces a typical application needs — a work-stealing
// fork-join session built with functional options, the two reducer
// mechanisms, and constructors for the typed reducer library — so that
// user code reads much like Cilk code while every reducer update stays
// fully typed:
//
//	s := cilkm.New(cilkm.WithMechanism(cilkm.MemoryMapped), cilkm.WithWorkers(8))
//	defer s.Close()
//	sum := cilkm.NewAdd[int](s.Engine())
//	_ = s.Run(func(c *cilkm.Context) {
//	    c.ParallelFor(0, n, func(c *cilkm.Context, i int) { sum.Add(c, 1) })
//	})
//	fmt.Println(sum.Value())
//
// Every typed reducer embeds Handle, whose View(c) returns a typed *V
// resolved through a per-worker cache keyed on the worker view epoch: the
// steady-state update path performs no interface dispatch, no runtime type
// assertion and no allocation.  Custom typed reducers are built from a
// TypedMonoid with NewCustomOf (or by embedding Handle directly).
//
// The building blocks live in the internal packages:
//
//   - internal/sched    — the work-stealing scheduler (Fork, ParallelFor).
//   - internal/core     — the memory-mapped reducer mechanism (Cilk-M),
//     with its optional model of the paper's thread-local page mapping.
//   - internal/hypermap — the hypermap baseline (Cilk Plus).
//   - internal/spa      — the sparse-accumulator view maps.
//   - internal/reducers — the typed reducer library.
//   - internal/pbfs     — the PBFS application benchmark.
//   - internal/bench    — the harness that regenerates the paper's figures.
package cilkm

import (
	"cmp"
	"runtime"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// Context is the execution context handed to parallel code; it provides
// Fork, ForkN and ParallelFor.
type Context = sched.Context

// Session couples a work-stealing scheduler with a reducer engine.
type Session = core.Session

// Engine is a reducer mechanism (memory-mapped or hypermap).
type Engine = core.Engine

// Monoid is a reducer's algebra in the word-level form the engines run.  It
// is not implemented by hand: reducers.AdaptMonoid builds one from a
// TypedMonoid, and the typed constructors (NewAdd, NewCustomOf, NewHandle,
// ...) do so internally.
type Monoid = core.Monoid

// TypedMonoid is the generics-first monoid interface: Identity and Reduce
// over a concrete view type, built once into the engines' Monoid at
// registration.
type TypedMonoid[V any] = reducers.TypedMonoid[V]

// TypedFuncMonoid adapts a pair of typed functions into a TypedMonoid.
type TypedFuncMonoid[V any] = reducers.TypedFuncMonoid[V]

// Handle is the generic typed-reducer core: View(c) resolves the calling
// context's local view as a typed pointer through a per-worker cache
// invalidated by the worker view epoch.  Embed it to build new typed
// reducer kinds.
type Handle[V any] = reducers.Handle[V]

// Extreme is the view type of the Min and Max reducers.
type Extreme[T cmp.Ordered] = reducers.Extreme[T]

// Reducer is an untyped reducer handle.
type Reducer = core.Reducer

// PanicError is the error returned by Session.RunErr and Session.RunContext
// when parallel code panics: the job is aborted, its partial views are
// released, and the original panic value plus the captured stack surface
// here instead of crashing the caller.  errors.As-compatible; Unwrap
// returns the payload when the code panicked with an error value.
type PanicError = sched.PanicError

// ErrClosed is returned by Session.Run (and friends) after Close.
var ErrClosed = sched.ErrClosed

// Mechanism selects the reducer implementation.
type Mechanism = reducers.Mechanism

// Reducer mechanisms.
const (
	// MemoryMapped is the paper's contribution (Cilk-M).
	MemoryMapped = reducers.MemoryMapped
	// Hypermap is the Cilk Plus baseline.
	Hypermap = reducers.Hypermap
)

// Mechanisms lists all mechanisms in display order.
func Mechanisms() []Mechanism { return reducers.Mechanisms() }

// Exporter gathers metric samples from registered sources and serves them
// over HTTP as Prometheus text exposition format or expvar-style JSON.
// Create one with NewExporter and attach it to a session with
// WithMetricsExporter.
type Exporter = metrics.Exporter

// MetricSample is one exported time-series value: a named counter or
// gauge, optionally carrying a single label pair.
type MetricSample = metrics.MetricSample

// MetricSource is implemented by subsystems that can be sampled for
// export; custom application sources can register alongside the runtime's
// on the same Exporter.
type MetricSource = metrics.Source

// NewExporter creates an empty metrics exporter.
func NewExporter() *Exporter { return metrics.NewExporter() }

// Option configures New (and NewEngineWith): mechanism, worker count, and
// the engine knobs.
type Option func(*options)

type options struct {
	mech     Mechanism
	workers  int
	eng      reducers.EngineOptions
	exporter *Exporter
	// svc carries the resident-service knobs; only NewService reads it
	// (see service.go).
	svc sched.ServiceConfig
}

// WithMechanism selects the reducer implementation (default MemoryMapped).
func WithMechanism(m Mechanism) Option {
	return func(o *options) { o.mech = m }
}

// WithWorkers sets the number of workers; zero or unset selects
// runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithTiming enables duration measurement of the reduce overheads.
func WithTiming() Option {
	return func(o *options) { o.eng.Timing = true }
}

// WithModelAddressSpace models the paper's kernel support in the
// memory-mapped engine: each worker maps an SPA page the first time it
// touches it, and growing the reducer region can fail a registration
// (ignored by the hypermap engine; see core.MMConfig).
func WithModelAddressSpace() Option {
	return func(o *options) { o.eng.ModelAddressSpace = true }
}

// WithMetricsExporter registers the session's runtime signals on the given
// exporter: the reducer engine (merge pipeline, arenas, directory, page
// pool), the scheduler (steals, forks, parking), and the
// fault-injection plan.  The exporter is an http.Handler — mount it to
// serve Prometheus text format (default) or expvar JSON (?format=expvar):
//
//	exp := cilkm.NewExporter()
//	s := cilkm.New(cilkm.WithMetricsExporter(exp))
//	http.Handle("/metrics", exp)
//
// Sampling reads lock-free counters, so scraping never perturbs a run.
func WithMetricsExporter(exp *Exporter) Option {
	return func(o *options) { o.exporter = exp }
}

// buildOptions applies opts and resolves the worker count once, so the
// engine, its page pool and the runtime are all sized for the same workers.
func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// New creates a session from functional options: mechanism, worker count
// and engine knobs in one variadic constructor.
//
//	s := cilkm.New()                                  // memory-mapped, GOMAXPROCS workers
//	s := cilkm.New(cilkm.WithMechanism(cilkm.Hypermap),
//	               cilkm.WithWorkers(8),
//	               cilkm.WithTiming())
func New(opts ...Option) *Session {
	o := buildOptions(opts)
	s := reducers.NewSession(o.mech, o.workers, o.eng)
	if o.exporter != nil {
		// The engines implement metrics.Source as an optional interface;
		// registration replaces by name, so a later session pointed at the
		// same exporter takes over the endpoint.
		if src, ok := s.Engine().(MetricSource); ok {
			o.exporter.Register("engine", src)
		}
		o.exporter.Register("sched", s.Runtime())
		o.exporter.Register("faultinject", metrics.SourceFunc(faultinject.SampleMetrics))
	}
	return s
}

// NewEngineWith creates a stand-alone reducer engine from the same
// functional options as New.  It serves no runtime: it registers reducers
// and keeps counts but runs nothing.  To run reducers, create a Session
// with New, which builds the one engine its runtime is served by.
func NewEngineWith(opts ...Option) Engine {
	o := buildOptions(opts)
	return reducers.NewEngine(o.mech, o.workers, o.eng)
}

// LookupCount reports how many reducer lookups reached the engine since its
// counters were last reset.  Typed handles answer repeated lookups from
// their own caches, so these are engine visits, not the program's lookups
// (PBFS counts its own: pbfs.Result.Lookups).  Read it after Run has
// returned.
func LookupCount(eng Engine) int64 { return core.LookupCount(eng) }

// NewAdd registers a sum reducer.
func NewAdd[T reducers.Number](eng Engine) *reducers.Add[T] { return reducers.NewAdd[T](eng) }

// NewMin registers a minimum reducer.
func NewMin[T cmp.Ordered](eng Engine) *reducers.Min[T] { return reducers.NewMin[T](eng) }

// NewMax registers a maximum reducer.
func NewMax[T cmp.Ordered](eng Engine) *reducers.Max[T] { return reducers.NewMax[T](eng) }

// NewList registers a list-append reducer.
func NewList[T any](eng Engine) *reducers.List[T] { return reducers.NewList[T](eng) }

// NewAnd registers a logical-AND reducer.
func NewAnd(eng Engine) *reducers.And { return reducers.NewAnd(eng) }

// NewOr registers a logical-OR reducer.
func NewOr(eng Engine) *reducers.Or { return reducers.NewOr(eng) }

// NewString registers a string-concatenation reducer.
func NewString(eng Engine) *reducers.String { return reducers.NewString(eng) }

// NewMapOf registers a map-union reducer with the given combiner.
func NewMapOf[K comparable, V any](eng Engine, combine func(V, V) V) *reducers.MapOf[K, V] {
	return reducers.NewMapOf[K, V](eng, combine)
}

// NewCustomOf registers a typed reducer over an arbitrary TypedMonoid.
func NewCustomOf[V any](eng Engine, m TypedMonoid[V]) *reducers.CustomOf[V] {
	return reducers.NewCustomOf[V](eng, m)
}

// NewHandle registers a typed monoid and returns the bare typed handle, for
// callers embedding Handle in their own reducer types.
func NewHandle[V any](eng Engine, m TypedMonoid[V]) Handle[V] {
	return reducers.NewHandle[V](eng, m)
}
