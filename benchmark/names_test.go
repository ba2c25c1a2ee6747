package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// declared mirrors BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the code must declare the same workloads and metrics,
// inside the limits the benchmark contract sets.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	d := readDeclared(t)
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", d.RunSeconds)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", d.Paths)
	}

	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var coded []string
	for _, w := range workloadDefs {
		coded = append(coded, w.name)
	}
	sameNames(t, "workloads", names, coded)

	sameMetrics(t, "end_to_end", d.EndToEnd, boundedDefs, true)
	sameMetrics(t, "per_layer", d.PerLayer, perLayerDefs, false)

	seen := make(map[string]bool)
	for _, n := range append(append(names, metricNames(d.EndToEnd)...), metricNames(d.PerLayer)...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var setup *declaredMetric
	for i := range d.EndToEnd {
		if d.EndToEnd[i].Name == "setup_s" {
			setup = &d.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Error("end_to_end must hold setup_s, in s, lower is better")
	}
}

func metricNames(ms []declaredMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func sameNames(t *testing.T, what string, declared, coded []string) {
	t.Helper()
	a, b := append([]string(nil), declared...), append([]string(nil), coded...)
	sort.Strings(a)
	sort.Strings(b)
	for _, n := range a {
		if i := sort.SearchStrings(b, n); i == len(b) || b[i] != n {
			t.Errorf("%s: %s is declared in BENCHMARK.json but not in the code", what, n)
		}
	}
	for _, n := range b {
		if i := sort.SearchStrings(a, n); i == len(a) || a[i] != n {
			t.Errorf("%s: %s is in the code but not declared in BENCHMARK.json", what, n)
		}
	}
}

func sameMetrics(t *testing.T, what string, declared []declaredMetric, coded []metricDef, bounded bool) {
	t.Helper()
	var codedNames []string
	byName := make(map[string]metricDef)
	for _, d := range coded {
		codedNames = append(codedNames, d.name)
		byName[d.name] = d
	}
	sameNames(t, what, metricNames(declared), codedNames)
	for _, m := range declared {
		c, ok := byName[m.Name]
		if !ok {
			continue
		}
		if !unitRE.MatchString(m.Unit) || m.Unit != c.unit {
			t.Errorf("%s %s: unit %q, code says %q", what, m.Name, m.Unit, c.unit)
		}
		if m.Better != c.better || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s %s: better %q, code says %q", what, m.Name, m.Better, c.better)
		}
		switch {
		case bounded && (m.Bound == nil || *m.Bound != c.bound || *m.Bound <= 0 || *m.Bound > 0.25):
			t.Errorf("%s %s: bound %v, code says %v; it must lie in (0, 0.25]", what, m.Name, m.Bound, c.bound)
		case !bounded && m.Bound != nil:
			t.Errorf("%s %s: per-layer metrics carry no bound", what, m.Name)
		}
	}
}

// TestSmoke runs every workload, traced and untraced, and every probe at
// about 1/100 size with all verification on, so a change to the runtime's
// API or behaviour that breaks the benchmark fails here and not at the next
// measurement.  It also checks the other half of the name sync: every
// declared metric is emitted, and nothing else is.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run takes a few seconds")
	}
	t.Chdir(t.TempDir()) // the span files go to out/ in the working directory
	const out = "results.json"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	rep, err := loadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2*len(workloadDefs) {
		t.Fatalf("%d results, want an untraced and a traced one for each of %d workloads", len(rep.Results), len(workloadDefs))
	}
	var e2e, perLayer []string
	for _, d := range endToEndDefs {
		e2e = append(e2e, d.name)
	}
	for _, d := range perLayerDefs {
		perLayer = append(perLayer, d.name)
	}
	for _, res := range rep.Results {
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %s", res.Workload, res.Failed, res.Attempted, res.First)
		}
		if res.EndToEnd != nil {
			var got []string
			for name := range res.EndToEnd {
				got = append(got, name)
			}
			sameNames(t, res.Workload+" end-to-end", e2e, got)
			continue
		}
		var got []string
		for name := range res.PerLayer {
			got = append(got, name)
		}
		for name := range rep.Probes {
			if _, twice := res.PerLayer[name]; twice {
				t.Errorf("%s is reported by both the probes and the traced workload", name)
			}
			got = append(got, name)
		}
		sameNames(t, res.Workload+" per-layer", perLayer, got)
		if _, err := os.Stat(res.Detail.SpanFile); err != nil {
			t.Errorf("%s: no span file: %v", res.Workload, err)
		}
	}
}
