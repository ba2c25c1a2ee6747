package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0 // only the unbounded metrics sit at zero; judge handles fail_ratio itself
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge compares one end-to-end metric of one workload between two runs.
// A bounded metric breaches when it is worse by more than its bound;
// fail_ratio breaches on any increase; the other unbounded metrics (see
// boundedDefs) are only shown.  Where either run's own repeats spread wider
// than the bound — their throughputs, or their median latencies — or a run
// is invalid, neither a breach nor its absence can be claimed: the verdict
// is unresolved.
func judge(d metricDef, a, b result) (line, verdict string) {
	va, vb := a.EndToEnd[d.name], b.EndToEnd[d.name]
	if va == nil || vb == nil {
		return fmt.Sprintf("%14s %14s", "null", "null"), "n/a"
	}
	worse := worsening(d, *va, *vb)
	line = fmt.Sprintf("%14.6g %14.6g %+8.1f%% %6.0f%%", *va, *vb, 100*worse, 100*d.bound)
	switch {
	case d.name == "fail_ratio" && *vb > *va:
		return line, "BREACH"
	case d.bound == 0:
		return line, "not bounded"
	case worse <= d.bound:
		return line, "ok"
	case d.name == "throughput_ops_s" && max(a.Detail.RepeatSpread, b.Detail.RepeatSpread) > d.bound,
		d.name == "latency_p50_us" && max(a.Detail.RepeatP50Spread, b.Detail.RepeatP50Spread) > d.bound:
		return line, "unresolved (repeat spread wider than the bound)"
	case a.Invalid != "" || b.Invalid != "":
		return line, "unresolved (invalid run)"
	}
	return line, "BREACH"
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse the second is and the bound, and returns non-zero when a
// bound is breached.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadReport(pathA)
	b, errB := loadReport(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(stderr, "compare:", errA, errB)
		return 2
	}
	fmt.Fprintf(stdout, "a: %s  commit %s  %s  W=%d  seed %d  %g s\n", pathA, a.Env.GitCommit, a.Env.GoVersion, a.Env.Workers, a.Seed, a.Seconds)
	fmt.Fprintf(stdout, "b: %s  commit %s  %s  W=%d  seed %d  %g s\n", pathB, b.Env.GitCommit, b.Env.GoVersion, b.Env.Workers, b.Seed, b.Seconds)
	if a.Env.Workers != b.Env.Workers {
		fmt.Fprintf(stderr, "compare: W=%d and W=%d measure different programs\n", a.Env.Workers, b.Env.Workers)
		return 2
	}
	code, compared := 0, 0
	for _, ra := range a.Results {
		if ra.EndToEnd == nil {
			continue
		}
		for _, rb := range b.Results {
			if rb.Workload != ra.Workload || rb.EndToEnd == nil {
				continue
			}
			compared++
			fmt.Fprintf(stdout, "\n%-12s %-20s %14s %14s %9s %7s\n", ra.Workload, "", "a", "b", "worse by", "bound")
			for _, d := range endToEndDefs {
				line, verdict := judge(d, ra, rb)
				fmt.Fprintf(stdout, "  %-31s %s  %s\n", d.name, line, verdict)
				if verdict == "BREACH" {
					code = 1
				}
			}
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "compare: the two files share no untraced workload result")
		return 2
	}
	return code
}
