package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// This file implements `benchjson diff`: the bench-trajectory guardrail
// that compares two committed BENCH_pr*.json artifacts and flags
// regressions.  The comparison is deliberately conservative about noise:
//
//   - Names are normalised by stripping the trailing -<GOMAXPROCS> suffix,
//     so artifacts recorded on machines with different core counts still
//     line up.
//   - Repeated runs of one benchmark (-count=N) aggregate by minimum
//     ns/op — the standard "best observed run" estimator, least sensitive
//     to scheduling noise.
//   - Only the headline benchmarks (fork, steal, lookup, merge,
//     first-lookup — the paper's core operations) can fail the diff;
//     everything else is reported but advisory.  A benchmark present in
//     one artifact and missing from the other is a warning, not a
//     failure, so renames don't brick CI.
//
// The exit status is CI-advisory: the workflow runs the diff with
// continue-on-error so a regression turns the job yellow for a human to
// read, rather than blocking unrelated work on a noisy runner.

// headlineBenchmarks maps a headline category to the normalised benchmark
// names that represent it.  A >threshold ns/op regression in any of these
// makes the diff exit nonzero.
var headlineBenchmarks = map[string][]string{
	"fork":         {"BenchmarkForkNoSteal", "BenchmarkForkNoStealDepth8"},
	"steal":        {"BenchmarkStealThroughput"},
	"lookup":       {"BenchmarkMMLookupRaw", "BenchmarkMMLookupViaInterface"},
	"merge":        {"BenchmarkMerge256", "BenchmarkMerge1k", "BenchmarkMMMergeWritten100"},
	"first-lookup": {"BenchmarkMMFirstLookupArena", "BenchmarkMMFirstLookupHeap"},
}

// headlineCategory returns the category of a normalised benchmark name, or
// "" when the benchmark is not a headline.
func headlineCategory(name string) string {
	for cat, names := range headlineBenchmarks {
		for _, n := range names {
			if n == name {
				return cat
			}
		}
	}
	return ""
}

// normalizeBenchName strips run-configuration suffixes so artifacts
// recorded under different settings still line up: the trailing -<digits>
// GOMAXPROCS suffix that `go test -bench` appends to parallel benchmark
// names, and the -race / -short tags a bench runner may append when it
// records instrumented or shortened runs.  Tags can stack (a -race run on
// 8 cores records Benchmark...-race-8), so stripping repeats until no
// recognised suffix remains.
func normalizeBenchName(name string) string {
	for {
		i := strings.LastIndex(name, "-")
		if i <= 0 {
			return name
		}
		suffix := name[i+1:]
		switch {
		case suffix == "race" || suffix == "short":
		case suffix != "" && strings.Trim(suffix, "0123456789") == "":
		default:
			return name
		}
		name = name[:i]
	}
}

// aggregateResults reduces a document to one ns/op per normalised
// benchmark name, taking the minimum over repeated runs.
func aggregateResults(doc Document) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range doc.Benchmarks {
		name := normalizeBenchName(r.Name)
		if best, ok := out[name]; !ok || r.NsPerOp < best {
			out[name] = r.NsPerOp
		}
	}
	return out
}

// diffRow is one line of the delta table.
type diffRow struct {
	Name      string
	Category  string // headline category, or "" for advisory benchmarks
	OldNs     float64
	NewNs     float64
	DeltaPct  float64 // (new-old)/old, in percent; positive is a slowdown
	Regressed bool    // headline benchmark above the threshold
}

// benchDiff is the computed comparison between two artifacts.
type benchDiff struct {
	Rows []diffRow
	// MissingInNew lists benchmarks present in the old artifact only;
	// MissingInOld the reverse.  Both warn without failing the diff.
	MissingInNew []string
	MissingInOld []string
}

// regressions returns the rows that fail the guardrail.
func (d benchDiff) regressions() []diffRow {
	var out []diffRow
	for _, r := range d.Rows {
		if r.Regressed {
			out = append(out, r)
		}
	}
	return out
}

// computeDiff compares two artifacts.  thresholdPct is the regression gate
// in percent (10 means a headline benchmark may be up to 10% slower).
func computeDiff(oldDoc, newDoc Document, thresholdPct float64) benchDiff {
	oldNs := aggregateResults(oldDoc)
	newNs := aggregateResults(newDoc)
	var d benchDiff
	for name, o := range oldNs {
		n, ok := newNs[name]
		if !ok {
			d.MissingInNew = append(d.MissingInNew, name)
			continue
		}
		row := diffRow{Name: name, Category: headlineCategory(name), OldNs: o, NewNs: n}
		if o > 0 {
			row.DeltaPct = (n - o) / o * 100
		}
		row.Regressed = row.Category != "" && row.DeltaPct > thresholdPct
		d.Rows = append(d.Rows, row)
	}
	for name := range newNs {
		if _, ok := oldNs[name]; !ok {
			d.MissingInOld = append(d.MissingInOld, name)
		}
	}
	sort.Slice(d.Rows, func(i, j int) bool { return d.Rows[i].Name < d.Rows[j].Name })
	sort.Strings(d.MissingInNew)
	sort.Strings(d.MissingInOld)
	return d
}

// writeDiff renders the delta table and warnings.  The header names the
// comparison baseline explicitly so a pasted table is self-describing —
// "which artifact were these deltas measured against" does not depend on
// remembering the argument order.
func writeDiff(w io.Writer, d benchDiff, oldLabel, newLabel string) {
	fmt.Fprintf(w, "benchmark comparison: %s -> %s\n", oldLabel, newLabel)
	fmt.Fprintf(w, "baseline: %s\n\n", oldLabel)
	fmt.Fprintf(w, "%-44s %14s %14s %9s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "headline")
	for _, r := range d.Rows {
		mark := r.Category
		if r.Regressed {
			mark += "  REGRESSION"
		}
		fmt.Fprintf(w, "%-44s %14.1f %14.1f %+8.1f%%  %s\n", r.Name, r.OldNs, r.NewNs, r.DeltaPct, mark)
	}
	for _, name := range d.MissingInNew {
		fmt.Fprintf(w, "warning: %s present in %s but missing from %s\n", name, oldLabel, newLabel)
	}
	for _, name := range d.MissingInOld {
		fmt.Fprintf(w, "warning: %s present in %s but missing from %s\n", name, newLabel, oldLabel)
	}
}

// loadDocument reads one BENCH_pr*.json artifact.
func loadDocument(path string) (Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return Document{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// runDiff implements the diff subcommand; it returns the process exit
// code: 0 clean, 1 headline regression, 2 usage or I/O error.
func runDiff(args []string) int {
	fs := flag.NewFlagSet("benchjson diff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 10, "headline regression gate in percent")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson diff [-threshold pct] OLD.json NEW.json")
		return 2
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	oldDoc, err := loadDocument(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	newDoc, err := loadDocument(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	d := computeDiff(oldDoc, newDoc, *threshold)
	writeDiff(os.Stdout, d, oldPath, newPath)
	if regs := d.regressions(); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d headline regression(s) above %.0f%%\n", len(regs), *threshold)
		return 1
	}
	fmt.Printf("\nno headline regressions above %.0f%%\n", *threshold)
	return 0
}
