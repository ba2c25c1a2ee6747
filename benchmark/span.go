package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// epoch anchors every timestamp the benchmark takes; now reads the
// monotonic clock relative to it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one interval recorded from the benchmark's side of a call into
// the runtime.  Spans of one op share its id; Parent is the index of the
// span that caused this one, -1 for the op's root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends.  It is used from one
// goroutine at a time: loops that run on several goroutines stamp plain
// per-job records and convert them to spans afterwards.
type tracer struct {
	spans []span
}

// add records a span and returns its index, for use as a child's Parent.
// A nil tracer records nothing.
func (t *tracer) add(name string, start, end int64, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// computeSelf fills in Self for every span: its duration minus the part of
// that interval its child spans cover (overlapping children count once).
func computeSelf(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[i]
		slices.SortFunc(kids, func(a, b int) int { return cmp.Compare(spans[a].Start, spans[b].Start) })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self = p.End - p.Start - covered
	}
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
	P50NS   int64  `json:"p50_ns"`
}

func summarize(spans []span) []spanSummary {
	byName := make(map[string][]int64)
	self := make(map[string]int64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.End-s.Start)
		self[s.Name] += s.Self
	}
	out := make([]spanSummary, 0, len(byName))
	for name, durs := range byName {
		slices.Sort(durs)
		var total int64
		for _, d := range durs {
			total += d
		}
		p50, _ := percentile(durs, 0.5)
		out = append(out, spanSummary{Name: name, Count: len(durs), TotalNS: total, SelfNS: self[name], P50NS: p50})
	}
	slices.SortFunc(out, func(a, b spanSummary) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// durations returns the sorted durations of every span called name.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	slices.Sort(out)
	return out
}

// maxSpansWritten caps the span file: a one-second service repeat records
// a quarter of a million spans, and the summary carries every one of them.
const maxSpansWritten = 20000

// traceDir is where traced runs write their span files.  run.sh links in
// the checkout's benchmark/out; the default is that directory as `go run`
// and `go test` in the package's own directory see it.
var traceDir = "out"

// writeTrace writes the spans of one workload's traced repeat, with self
// times, to traceDir/trace-<workload>.json and returns that path.
func writeTrace(workload string, spans []span) (string, error) {
	computeSelf(spans)
	doc := struct {
		Workload string        `json:"workload"`
		Total    int           `json:"spans_total"`
		Written  int           `json:"spans_written"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, len(spans), min(len(spans), maxSpansWritten), summarize(spans), spans[:min(len(spans), maxSpansWritten)]}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(traceDir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
