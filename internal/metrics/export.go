package metrics

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the runtime's metrics export surface: a small,
// dependency-free exporter that serves point-in-time samples of the
// counters the rest of this package defines (and any other source that
// registers itself) in two wire formats — Prometheus text exposition and
// expvar-style JSON.
//
// The design splits responsibilities the same way the counters do:
//
//   - Sources (the engines, the scheduler, the fault-injection plan) own
//     their counters and implement Source by emitting MetricSample values
//     from lock-free snapshot reads of their padded atomics.  Sampling
//     never stops the world: a scrape observes each counter atomically but
//     the set of samples is not a consistent cut, exactly like scraping any
//     live process.
//   - The Exporter owns naming, registration and rendering.  Registration
//     replaces by source name, so a harness that builds a fresh engine per
//     experiment case can re-register under the same name and the endpoint
//     follows the live engine.
//
// The exporter is deliberately not a general metrics library: one label
// per sample, counters and gauges only, no histograms.  That is enough to
// expose every runtime signal the bench guardrails consume, while keeping
// the scrape path allocation-light and the package free of third-party
// dependencies.

// MetricKind distinguishes the Prometheus TYPE of an exported sample.
type MetricKind int

// Metric kinds.
const (
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter MetricKind = iota
	// KindGauge is a point-in-time value that may go up and down.
	KindGauge
)

// promType returns the Prometheus TYPE keyword.
func (k MetricKind) promType() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

// MetricSample is one exported time series value.  Name must follow
// Prometheus conventions ([a-zA-Z_][a-zA-Z0-9_]*, counters ending in
// _total); LabelKey/LabelValue optionally attach a single label pair.
type MetricSample struct {
	Name       string
	Help       string
	Kind       MetricKind
	LabelKey   string
	LabelValue string
	Value      float64
}

// Source is implemented by subsystems that can be sampled for export: the
// reducer engines, the scheduler runtime, and the fault-injection plan all
// emit their counters through it.  Implementations must be safe to call at
// any time, concurrently with the hottest paths — in practice that means
// emitting from atomic counter loads only.
type Source interface {
	SampleMetrics(emit func(MetricSample))
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(emit func(MetricSample))

// SampleMetrics implements Source.
func (f SourceFunc) SampleMetrics(emit func(MetricSample)) { f(emit) }

// Exporter gathers samples from registered sources and serves them as
// Prometheus text exposition format and as expvar-style JSON.  It
// implements http.Handler; the zero value is not usable, construct with
// NewExporter.
type Exporter struct {
	mu sync.Mutex
	// sources is the RCU-published registration list: scrapes load the
	// pointer once and iterate without holding mu, so a slow registrant can
	// never block a scrape (or vice versa).
	sources atomic.Pointer[[]namedSource]
}

// namedSource pairs a registration name with its source.
type namedSource struct {
	name string
	src  Source
}

// NewExporter creates an empty exporter.
func NewExporter() *Exporter {
	e := &Exporter{}
	e.sources.Store(&[]namedSource{})
	return e
}

// Register installs (or, for an existing name, replaces) a sample source.
// Replacement makes registration idempotent for harnesses that rebuild
// their engine per experiment case: re-registering under the same name
// points the endpoint at the live instance.
func (e *Exporter) Register(name string, src Source) {
	if src == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := *e.sources.Load()
	next := make([]namedSource, 0, len(cur)+1)
	replaced := false
	for _, ns := range cur {
		if ns.name == name {
			next = append(next, namedSource{name: name, src: src})
			replaced = true
		} else {
			next = append(next, ns)
		}
	}
	if !replaced {
		next = append(next, namedSource{name: name, src: src})
	}
	e.sources.Store(&next)
}

// Unregister removes a sample source by name (a no-op for unknown names).
func (e *Exporter) Unregister(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := *e.sources.Load()
	next := make([]namedSource, 0, len(cur))
	for _, ns := range cur {
		if ns.name != name {
			next = append(next, ns)
		}
	}
	e.sources.Store(&next)
}

// Gather samples every registered source and returns the samples sorted by
// name (then label value), ready for rendering.
func (e *Exporter) Gather() []MetricSample {
	var out []MetricSample
	for _, ns := range *e.sources.Load() {
		ns.src.SampleMetrics(func(s MetricSample) { out = append(out, s) })
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].LabelValue < out[j].LabelValue
	})
	return out
}

// WritePrometheus renders every sample in the Prometheus text exposition
// format (version 0.0.4): one # HELP and # TYPE header per metric name,
// then one line per sample.
func (e *Exporter) WritePrometheus(w io.Writer) error {
	samples := e.Gather()
	var b strings.Builder
	lastName := ""
	for _, s := range samples {
		if s.Name != lastName {
			if s.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, escapeHelp(s.Help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Kind.promType())
			lastName = s.Name
		}
		if s.LabelKey != "" {
			fmt.Fprintf(&b, "%s{%s=%q} %v\n", s.Name, s.LabelKey, s.LabelValue, promValue(s.Value))
		} else {
			fmt.Fprintf(&b, "%s %v\n", s.Name, promValue(s.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promValue formats a sample value the way Prometheus clients do: integral
// values without an exponent, everything else in Go's shortest form.
func promValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// escapeHelp escapes newlines and backslashes per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ExpvarMap flattens the current samples into an expvar-style map: metric
// name (with ".<label value>" appended for labelled samples) to value.
func (e *Exporter) ExpvarMap() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range e.Gather() {
		key := s.Name
		if s.LabelKey != "" {
			key = key + "." + s.LabelValue
		}
		out[key] = s.Value
	}
	return out
}

// WriteExpvar renders the flattened sample map as JSON, the shape expvar's
// /debug/vars serves for published variables.
func (e *Exporter) WriteExpvar(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e.ExpvarMap())
}

// ExpvarVar returns the exporter as an expvar.Var whose String is the JSON
// of ExpvarMap, suitable for expvar.Publish: the runtime's metrics then
// appear under the chosen key on the standard /debug/vars endpoint.
func (e *Exporter) ExpvarVar() expvar.Var {
	return expvar.Func(func() any { return e.ExpvarMap() })
}

// PublishExpvar publishes the exporter on the process-wide expvar registry
// under the given name.  expvar.Publish panics on duplicate names, so call
// it once per process per name.
func (e *Exporter) PublishExpvar(name string) {
	expvar.Publish(name, e.ExpvarVar())
}

// ServeHTTP implements http.Handler.  The default response is Prometheus
// text exposition; `?format=expvar` (or `format=json`) selects the
// expvar-style JSON rendering of the same samples.  Mount it wherever the
// embedding server wants its scrape endpoint:
//
//	mux.Handle("/metrics", exporter)
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "expvar", "json":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = e.WriteExpvar(w)
	default:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = e.WritePrometheus(w)
	}
}
