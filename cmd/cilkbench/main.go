// Command cilkbench regenerates the tables and figures of the paper's
// evaluation (Section 8).  Each experiment prints a text table whose rows
// correspond to the clusters, bars or curves of the original figure.
//
// Usage:
//
//	cilkbench -experiment fig1|fig5a|fig5b|fig6|fig7|fig8|fig9|fig10|faultoverhead|all \
//	          [-workers N] [-lookups N] [-reps N] [-scale F] [-graphs a,b,c] [-quick]
//
// A performance claim cites benchmark/run.sh (benchmark/README.md), not
// these tables.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which figure to regenerate: fig1, fig5a, fig5b, fig6, fig7, fig8, fig9, fig10, faultoverhead, or all")
		workers    = flag.Int("workers", 0, "maximum worker count for parallel experiments (default 16)")
		lookups    = flag.Int("lookups", 0, "number of reducer lookups per microbenchmark run (default 2,000,000)")
		reps       = flag.Int("reps", 0, "repetitions per data point (default 3)")
		scale      = flag.Float64("scale", 0, "PBFS graph scale relative to the paper's inputs (default 1/128)")
		graphs     = flag.String("graphs", "", "comma-separated subset of PBFS inputs (default: all eight)")
		quick      = flag.Bool("quick", false, "use a very small configuration for a smoke run")
		seed       = flag.Int64("seed", 0, "workload seed")
		metricsAt  = flag.String("metrics-addr", "", "serve runtime metrics on this address while experiments run (e.g. :9090; Prometheus text at /metrics, ?format=expvar for JSON)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *workers > 0 {
		cfg.MaxWorkers = *workers
	}
	if *lookups > 0 {
		cfg.Lookups = *lookups
	}
	if *reps > 0 {
		cfg.Repetitions = *reps
	}
	if *scale > 0 {
		cfg.GraphScale = *scale
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	var inputs []string
	if *graphs != "" {
		for _, g := range strings.Split(*graphs, ",") {
			if g = strings.TrimSpace(g); g != "" {
				inputs = append(inputs, g)
			}
		}
	}

	if *metricsAt != "" {
		exp := metrics.NewExporter()
		cfg.Exporter = exp
		mux := http.NewServeMux()
		mux.Handle("/metrics", exp)
		ln, err := net.Listen("tcp", *metricsAt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cilkbench: metrics listener: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "cilkbench: serving metrics on http://%s/metrics\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				fmt.Fprintf(os.Stderr, "cilkbench: metrics server: %v\n", err)
			}
		}()
	}

	want := strings.ToLower(*experiment)
	ran := 0
	for _, exp := range []struct {
		name string
		run  func() error
	}{
		{"fig1", func() error { return runFig1(cfg) }},
		{"fig5a", func() error { return runFig5(cfg, false) }},
		{"fig5b", func() error { return runFig5(cfg, true) }},
		{"fig6", func() error { return runFig6(cfg) }},
		{"fig7", func() error { return runFig7(cfg, true, false) }},
		{"fig8", func() error { return runFig7(cfg, false, true) }},
		{"fig9", func() error { return runFig9(cfg) }},
		{"fig10", func() error { return runFig10(cfg, inputs) }},
		{"faultoverhead", func() error { return runFaultOverhead(cfg) }},
	} {
		if want != "all" && want != exp.name {
			continue
		}
		// fig7 and fig8 come from the same instrumented runs; when running
		// "all", print both from one pass.
		if want == "all" && exp.name == "fig8" {
			continue
		}
		if want == "all" && exp.name == "fig7" {
			if err := runFig7(cfg, true, true); err != nil {
				fail(exp.name, err)
			}
			ran++
			continue
		}
		start := time.Now()
		if err := exp.run(); err != nil {
			fail(exp.name, err)
		}
		fmt.Printf("(%s completed in %v)\n\n", exp.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "cilkbench: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

func fail(name string, err error) {
	fmt.Fprintf(os.Stderr, "cilkbench: %s: %v\n", name, err)
	os.Exit(1)
}

func runFig1(cfg bench.Config) error {
	res, err := bench.RunFig1(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	fmt.Printf("memory-mapped lookups measured %.2fx faster than hypermap (paper: close to 4x)\n\n", res.MMFasterThanHypermap())
	return nil
}

func runFig5(cfg bench.Config, parallel bool) error {
	res, err := bench.RunFig5(cfg, parallel)
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	fmt.Printf("mean hypermap/memory-mapped ratio: %.2fx (paper: 4-9x serial, 3-9x parallel)\n\n", res.MeanRatio())
	return nil
}

func runFig6(cfg bench.Config) error {
	res, err := bench.RunFig6(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	fmt.Println()
	return nil
}

func runFig7(cfg bench.Config, printFig7, printFig8 bool) error {
	res, err := bench.RunFig7(cfg)
	if err != nil {
		return err
	}
	if printFig7 {
		fmt.Print(res.Fig7Table())
		fmt.Println()
	}
	if printFig8 {
		fmt.Print(res.Fig8Table())
		fmt.Println()
	}
	return nil
}

func runFig9(cfg bench.Config) error {
	res, err := bench.RunFig9(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	fmt.Println()
	return nil
}

func runFaultOverhead(cfg bench.Config) error {
	res, err := bench.RunFaultOverhead(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	fmt.Println()
	return nil
}

func runFig10(cfg bench.Config, inputs []string) error {
	res, err := bench.RunFig10(cfg, inputs)
	if err != nil {
		return err
	}
	fmt.Print(res.Fig10aTable())
	fmt.Println()
	fmt.Print(res.Fig10bTable())
	fmt.Println()
	return nil
}
