package main

import (
	"strings"
	"testing"
)

// fixture builds a Document from (name, ns/op) pairs.
func fixture(pairs ...any) Document {
	var doc Document
	for i := 0; i+1 < len(pairs); i += 2 {
		doc.Benchmarks = append(doc.Benchmarks, Result{
			Name:       pairs[i].(string),
			Iterations: 1,
			NsPerOp:    pairs[i+1].(float64),
		})
	}
	return doc
}

func TestDiffDetectsHeadlineRegression(t *testing.T) {
	oldDoc := fixture("BenchmarkForkNoSteal-8", 100.0)
	newDoc := fixture("BenchmarkForkNoSteal-8", 125.0)
	d := computeDiff(oldDoc, newDoc, 10)
	regs := d.regressions()
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want exactly one", regs)
	}
	r := regs[0]
	if r.Name != "BenchmarkForkNoSteal" || r.Category != "fork" {
		t.Errorf("regression row = %+v, want normalised fork headline", r)
	}
	if r.DeltaPct < 24.9 || r.DeltaPct > 25.1 {
		t.Errorf("DeltaPct = %v, want ~25", r.DeltaPct)
	}
}

func TestDiffWithinToleranceAndNonHeadline(t *testing.T) {
	oldDoc := fixture(
		"BenchmarkForkNoSteal", 100.0, // headline: +5% is inside the gate
		"BenchmarkTypedAdd/memory-mapped", 10.0, // non-headline: +300% is advisory
	)
	newDoc := fixture(
		"BenchmarkForkNoSteal", 105.0,
		"BenchmarkTypedAdd/memory-mapped", 40.0,
	)
	d := computeDiff(oldDoc, newDoc, 10)
	if regs := d.regressions(); len(regs) != 0 {
		t.Fatalf("regressions = %v, want none (within tolerance / non-headline)", regs)
	}
	// The non-headline slowdown still appears in the table.
	var sawTyped bool
	for _, r := range d.Rows {
		if r.Name == "BenchmarkTypedAdd/memory-mapped" {
			sawTyped = true
			if r.Category != "" || r.Regressed {
				t.Errorf("non-headline row = %+v, want advisory", r)
			}
		}
	}
	if !sawTyped {
		t.Error("non-headline benchmark missing from the delta table")
	}
}

func TestDiffImprovementNeverRegresses(t *testing.T) {
	oldDoc := fixture("BenchmarkStealThroughput", 100.0)
	newDoc := fixture("BenchmarkStealThroughput", 50.0)
	d := computeDiff(oldDoc, newDoc, 10)
	if regs := d.regressions(); len(regs) != 0 {
		t.Fatalf("regressions = %v, want none for a 50%% improvement", regs)
	}
}

func TestDiffMissingBenchmarkWarnsWithoutFailing(t *testing.T) {
	oldDoc := fixture(
		"BenchmarkForkNoSteal", 100.0,
		"BenchmarkRenamedAway", 50.0,
	)
	newDoc := fixture(
		"BenchmarkForkNoSteal", 100.0,
		"BenchmarkBrandNew", 60.0,
	)
	d := computeDiff(oldDoc, newDoc, 10)
	if regs := d.regressions(); len(regs) != 0 {
		t.Fatalf("regressions = %v, want none", regs)
	}
	if len(d.MissingInNew) != 1 || d.MissingInNew[0] != "BenchmarkRenamedAway" {
		t.Errorf("MissingInNew = %v, want [BenchmarkRenamedAway]", d.MissingInNew)
	}
	if len(d.MissingInOld) != 1 || d.MissingInOld[0] != "BenchmarkBrandNew" {
		t.Errorf("MissingInOld = %v, want [BenchmarkBrandNew]", d.MissingInOld)
	}
	var out strings.Builder
	writeDiff(&out, d, "old.json", "new.json")
	if !strings.Contains(out.String(), "warning: BenchmarkRenamedAway") {
		t.Errorf("rendered diff lacks missing-benchmark warning:\n%s", out.String())
	}
}

func TestDiffRaceSuffixedRunsLineUp(t *testing.T) {
	// A -race bench artifact must compare against a plain baseline without
	// every benchmark degenerating into missing-name warnings.
	oldDoc := fixture("BenchmarkStealThroughput-4", 100.0)
	newDoc := fixture("BenchmarkStealThroughput-race-4", 104.0)
	d := computeDiff(oldDoc, newDoc, 10)
	if len(d.MissingInNew) != 0 || len(d.MissingInOld) != 0 {
		t.Fatalf("missing = %v / %v, want suffixed names to line up", d.MissingInNew, d.MissingInOld)
	}
	if len(d.Rows) != 1 || d.Rows[0].Name != "BenchmarkStealThroughput" {
		t.Fatalf("rows = %+v, want one normalised steal row", d.Rows)
	}
}

func TestDiffHeaderReportsBaselinePath(t *testing.T) {
	d := computeDiff(fixture("BenchmarkForkNoSteal", 100.0), fixture("BenchmarkForkNoSteal", 100.0), 10)
	var out strings.Builder
	writeDiff(&out, d, "BENCH_pr6.json", "BENCH_pr8.json")
	if !strings.Contains(out.String(), "baseline: BENCH_pr6.json") {
		t.Errorf("diff header lacks the baseline path:\n%s", out.String())
	}
}

func TestDiffAggregatesRepeatedRunsByMin(t *testing.T) {
	// -count=3 produces three lines per benchmark; min ns/op wins.
	oldDoc := fixture(
		"BenchmarkMMLookupRaw", 10.0,
		"BenchmarkMMLookupRaw", 8.0,
		"BenchmarkMMLookupRaw", 12.0,
	)
	newDoc := fixture(
		"BenchmarkMMLookupRaw-16", 9.0,
		"BenchmarkMMLookupRaw-16", 8.5,
	)
	d := computeDiff(oldDoc, newDoc, 10)
	if len(d.Rows) != 1 {
		t.Fatalf("rows = %+v, want one aggregated row", d.Rows)
	}
	r := d.Rows[0]
	if r.OldNs != 8.0 || r.NewNs != 8.5 {
		t.Errorf("aggregated ns/op = %v -> %v, want 8 -> 8.5 (min of runs)", r.OldNs, r.NewNs)
	}
	if r.Regressed {
		t.Errorf("6.25%% delta regressed at a 10%% gate: %+v", r)
	}
}

func TestNormalizeBenchName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkForkNoSteal-8":          "BenchmarkForkNoSteal",
		"BenchmarkForkNoSteal-128":        "BenchmarkForkNoSteal",
		"BenchmarkForkNoStealDepth8":      "BenchmarkForkNoStealDepth8",
		"BenchmarkTypedAdd/hypermap":      "BenchmarkTypedAdd/hypermap",
		"BenchmarkMerge1k":                "BenchmarkMerge1k",
		"BenchmarkRegisterChurn-foo-8":    "BenchmarkRegisterChurn-foo",
		"BenchmarkForkNoSteal-race":       "BenchmarkForkNoSteal",
		"BenchmarkForkNoSteal-short":      "BenchmarkForkNoSteal",
		"BenchmarkForkNoSteal-race-8":     "BenchmarkForkNoSteal",
		"BenchmarkForkNoSteal-8-race":     "BenchmarkForkNoSteal",
		"BenchmarkRegisterChurn-foo-race": "BenchmarkRegisterChurn-foo",
	}
	for in, want := range cases {
		if got := normalizeBenchName(in); got != want {
			t.Errorf("normalizeBenchName(%q) = %q, want %q", in, got, want)
		}
	}
}
