// Command benchmark is the runtime's one benchmark: six named workloads,
// seven end-to-end metrics, and a traced run that prices every layer.  It
// is a client of the runtime — it drives the public surface and measures
// each layer from outside, by timing calls — so a change to the runtime
// never edits it.  README.md defines every workload and metric.
//
//	bash benchmark/run.sh -workload all -seed 1 [-trace 1] [-out results.json]
//	bash benchmark/run.sh -smoke
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	cilkm "repro"
)

// report is the -out file: everything one invocation measured.
type report struct {
	Env     environment        `json:"environment"`
	Seed    uint64             `json:"seed"`
	Seconds float64            `json:"seconds"`
	Smoke   bool               `json:"smoke"`
	Results []result           `json:"results"`
	Probes  map[string]float64 `json:"probes,omitempty"` // per-layer metrics that do not depend on the workload
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs: update values, BFS source, arrival schedule")
	seconds := fs.Float64("seconds", 10, "measured time per workload")
	trace := fs.Int("trace", 0, "1: rerun each workload shortened with spans recorded and report the per-layer metrics")
	smoke := fs.Bool("smoke", false, "every workload, traced and untraced, and every probe at about 1/100 size")
	out := fs.String("out", "", "write everything measured to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	defs := workloadDefs
	if *workload != "all" {
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "-seconds must be positive and -trace 0 or 1")
		return 2
	}

	env := readEnvironment()
	pl := plan{
		p:       params{workers: env.Workers, mech: cilkm.MemoryMapped, seed: *seed, small: *smoke},
		seconds: *seconds, setups: 9,
	}
	rep := report{Env: env, Seed: *seed, Seconds: *seconds, Smoke: *smoke}
	if *smoke {
		pl.seconds, pl.setups = 0.25, 1
		rep.Seconds = pl.seconds
	}
	fmt.Fprintf(stdout, "%s %s/%s, %d CPUs, GOMAXPROCS %d, cgroup cpu.max %q, W=%d, seed %d, commit %s\n",
		env.GoVersion, env.GOOS, env.GOARCH, env.NumCPU, env.GOMAXPROCS, env.CgroupCPU, env.Workers, *seed, env.GitCommit)

	var probeErrs []error
	for _, def := range defs {
		if *trace == 0 || *smoke {
			res := runUntraced(def, pl)
			printResult(stdout, res)
			rep.Results = append(rep.Results, res)
		}
		if *trace == 1 || *smoke {
			res := runTraced(def, pl)
			printResult(stdout, res)
			rep.Results = append(rep.Results, res)
		}
	}
	if *trace == 1 || *smoke {
		rep.Probes, probeErrs = runProbes(pl)
		printMetrics(stdout, "probes", rep.Probes, perLayerDefs)
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", *out, err)
			return 1
		}
	}
	return finish(rep, probeErrs, *trace, stdout, stderr)
}

// resultLine is the last line of standard output: one JSON object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the first failure of every incorrect result and the
// result line, and returns the exit code: non-zero when anything failed,
// a run was invalid, or a declared metric could not be reported.
func finish(rep report, probeErrs []error, trace int, stdout, stderr io.Writer) int {
	line := resultLine{Correct: true, Metrics: make(map[string]metricValue)}
	code := 0
	for _, res := range rep.Results {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		if !res.Correct {
			fmt.Fprintf(stderr, "FAIL %s: %d of %d ops failed; first: %s\n", res.Workload, res.Failed, res.Attempted, res.First)
			line.Correct, code = false, 1
		}
		if res.Invalid != "" {
			// The outputs were correct but the loop was not open: its numbers
			// must not be recorded.
			fmt.Fprintf(stderr, "INVALID %s: %s\n", res.Workload, res.Invalid)
			code = 1
		}
	}
	for _, err := range probeErrs {
		fmt.Fprintf(stderr, "FAIL probe: %v\n", err)
		line.Correct, code = false, 1
		line.Failed++
	}
	// With one workload the line carries its metrics by their declared
	// names: the bounded end-to-end metrics of an untraced run, every
	// per-layer metric of a traced one.
	if len(rep.Results) == 1 {
		res := rep.Results[0]
		if trace == 0 {
			for _, d := range boundedDefs {
				v := res.EndToEnd[d.name]
				if v == nil {
					fmt.Fprintf(stderr, "%s: %s needs more samples than %g s gave (%d)\n", res.Workload, d.name, rep.Seconds, res.Detail.Samples)
					code = 1
					continue
				}
				line.Metrics[d.name] = metricValue{*v, d.unit}
			}
		} else {
			for _, d := range perLayerDefs {
				v, ok := res.PerLayer[d.name]
				if !ok {
					v, ok = rep.Probes[d.name]
				}
				if !ok {
					fmt.Fprintf(stderr, "%s: per-layer metric %s was not measured\n", res.Workload, d.name)
					code = 1
					continue
				}
				line.Metrics[d.name] = metricValue{v, d.unit}
			}
		}
	}
	data, _ := json.Marshal(line)
	fmt.Fprintf(stdout, "%s\n", data)
	return code
}

func printResult(w io.Writer, res result) {
	d := res.Detail
	fmt.Fprintf(w, "\n== %s   W=%d, op: %s, timed unit: %s, %d latency samples, %.2f s timed\n", res.Workload, d.WorkloadWorkers, d.Op, d.Unit, d.Samples, d.TimedWindowS)
	for _, def := range endToEndDefs {
		v, ok := res.EndToEnd[def.name]
		switch {
		case !ok:
		case v == nil:
			fmt.Fprintf(w, "  %-34s %14s %s\n", def.name, "null", def.unit)
		default:
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", def.name, *v, def.unit)
		}
	}
	if res.EndToEnd != nil && d.TailQuantile != 0 && d.TailQuantile != 0.99 {
		fmt.Fprintf(w, "  (latency_p99_us is the %.3f quantile: the highest with %d samples beyond it)\n", d.TailQuantile, minBeyond)
	}
	if len(d.RepeatOpsPerS) > 0 {
		fmt.Fprintf(w, "  %d repeats: ops/s min %.6g, median %.6g, max %.6g; interquartile range %.1f %% of the median (%.1f %% for the repeats' median latencies)\n",
			len(d.RepeatOpsPerS), slices.Min(d.RepeatOpsPerS), median(d.RepeatOpsPerS), slices.Max(d.RepeatOpsPerS), 100*d.RepeatSpread, 100*d.RepeatP50Spread)
	}
	if len(d.HostSlowdown) > 0 {
		fmt.Fprintf(w, "  host slowdown (reference loop ÷ %.3g ms) min %.3g, median %.3g, max %.3g; as timed: throughput %.6g 1/s, latency p50 %.6g us, set-up %.6g s\n",
			referenceNS/1e6, slices.Min(d.HostSlowdown), median(d.HostSlowdown), slices.Max(d.HostSlowdown), d.RawThroughput, d.RawLatencyP50US, d.RawSetupS)
	}
	if d.GenLagLimitUS > 0 && res.EndToEnd != nil {
		fmt.Fprintf(w, "  (clock-paced: throughput and latency are not corrected for the host; latency_p50_us is the %g quantile of the repeats' median latencies)\n", quietRepeats)
	}
	if d.GenLagLimitUS > 0 {
		fmt.Fprintf(w, "  open-loop generator lag p50 %.2f us (limit %.2f), p90 %.2f us, p99 %.2f us; past the %d us limit or refused: %.4g of arrivals\n",
			d.GenLagP50US, d.GenLagLimitUS, d.GenLagP90US, d.GenLagP99US, sloNS/1000, d.SLOMissRatio)
	}
	printMetrics(w, "", res.PerLayer, perLayerDefs)
	if d.SpanFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", d.SpanFile)
	}
}

func printMetrics(w io.Writer, title string, m map[string]float64, defs []metricDef) {
	if title != "" && len(m) > 0 {
		fmt.Fprintf(w, "\n== %s\n", title)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m[name], unitOf(defs, name))
	}
}
