package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pbfs"
	"repro/internal/reducers"
)

// Fig10Row is one input graph of Figure 10: PBFS execution times under both
// mechanisms on one worker and on the full worker count, plus the graph's
// measured characteristics (Figure 10(b)).
type Fig10Row struct {
	Spec  graph.InputSpec
	Stats graph.Stats
	// SerialTime and ParallelTime map mechanism → mean execution time.
	SerialTime   map[reducers.Mechanism]time.Duration
	ParallelTime map[reducers.Mechanism]time.Duration
	// Lookups is the number of reducer lookups one PBFS search performs on
	// this input (pbfs.Result.Lookups: the same under either mechanism and
	// at any worker count).
	Lookups int64
}

// SerialRatio returns Cilk-M time / Cilk Plus time on one worker (the
// paper reports values slightly above or near 1).
func (r Fig10Row) SerialRatio() float64 {
	hm := r.SerialTime[reducers.Hypermap].Seconds()
	if hm == 0 {
		return 0
	}
	return r.SerialTime[reducers.MemoryMapped].Seconds() / hm
}

// ParallelRatio returns Cilk-M time / Cilk Plus time on the full worker
// count (the paper reports values below 1: Cilk-M is faster).
func (r Fig10Row) ParallelRatio() float64 {
	hm := r.ParallelTime[reducers.Hypermap].Seconds()
	if hm == 0 {
		return 0
	}
	return r.ParallelTime[reducers.MemoryMapped].Seconds() / hm
}

// Fig10Result holds the PBFS study.
type Fig10Result struct {
	Workers    int
	GraphScale float64
	Rows       []Fig10Row
}

// RunFig10 reproduces Figure 10: PBFS on synthetic stand-ins for the
// paper's eight input graphs, on one worker and on cfg.MaxWorkers workers,
// under both reducer mechanisms.  Inputs may be restricted to a subset of
// the paper's graph names; nil means all eight.
func RunFig10(cfg Config, inputs []string) (*Fig10Result, error) {
	cfg = cfg.normalize()
	workers := clampWorkers(cfg.MaxWorkers)
	res := &Fig10Result{Workers: workers, GraphScale: cfg.GraphScale}

	specs := graph.PaperInputs()
	if len(inputs) > 0 {
		var filtered []graph.InputSpec
		for _, name := range inputs {
			spec, ok := graph.FindInput(name)
			if !ok {
				return nil, fmt.Errorf("bench: unknown PBFS input %q", name)
			}
			filtered = append(filtered, spec)
		}
		specs = filtered
	}

	for _, spec := range specs {
		g := spec.Build(cfg.GraphScale, cfg.Seed)
		row := Fig10Row{
			Spec:         spec,
			Stats:        g.ComputeStats(),
			SerialTime:   make(map[reducers.Mechanism]time.Duration),
			ParallelTime: make(map[reducers.Mechanism]time.Duration),
		}

		for _, mech := range reducers.Mechanisms() {
			// Serial (one worker).
			s1 := reducers.NewSession(mech, 1, reducers.EngineOptions{})
			sample, err := measure(cfg.Repetitions, func() (time.Duration, error) {
				return timeSearch(s1, g, &row)
			})
			s1.Close()
			if err != nil {
				return nil, fmt.Errorf("bench: PBFS %s serial (%v): %w", spec.Name, mech, err)
			}
			row.SerialTime[mech] = time.Duration(sample.Mean() * float64(time.Second))

			// Parallel (full worker count).
			sp := reducers.NewSession(mech, workers, reducers.EngineOptions{})
			sample, err = measure(cfg.Repetitions, func() (time.Duration, error) {
				return timeSearch(sp, g, &row)
			})
			sp.Close()
			if err != nil {
				return nil, fmt.Errorf("bench: PBFS %s parallel (%v): %w", spec.Name, mech, err)
			}
			row.ParallelTime[mech] = time.Duration(sample.Mean() * float64(time.Second))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// timeSearch times one validated PBFS from vertex 0 on s and records its
// lookup count in row.
func timeSearch(s *core.Session, g *graph.Graph, row *Fig10Row) (time.Duration, error) {
	start := time.Now()
	out, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0})
	if err != nil {
		return 0, err
	}
	if err := pbfs.Validate(g, 0, out); err != nil {
		return 0, err
	}
	row.Lookups = out.Lookups
	return time.Since(start), nil
}

// Fig10aTable renders the relative-execution-time comparison (Figure
// 10(a)): Cilk-M time normalised by Cilk Plus time.
func (r *Fig10Result) Fig10aTable() *metrics.Table {
	t := metrics.NewTable(
		"Figure 10(a): PBFS execution time of Cilk-M relative to Cilk Plus (lower than 1 means Cilk-M is faster)",
		"graph", "1 worker", fmt.Sprintf("%d workers", r.Workers))
	for _, row := range r.Rows {
		t.AddRow(row.Spec.Name, row.SerialRatio(), row.ParallelRatio())
	}
	return t
}

// Fig10bTable renders the graph-characteristics table (Figure 10(b)),
// showing the paper's inputs next to the synthetic stand-ins actually
// measured.
func (r *Fig10Result) Fig10bTable() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 10(b): input graphs (synthetic stand-ins at scale %.4g)", r.GraphScale),
		"graph", "|V| paper", "|E| paper", "D paper", "lookups paper",
		"|V| here", "|E| here", "D here", "lookups here")
	for _, row := range r.Rows {
		t.AddRow(
			row.Spec.Name,
			row.Spec.PaperVertices, row.Spec.PaperEdges, row.Spec.PaperDiameter, row.Spec.PaperLookups,
			row.Stats.Vertices, row.Stats.Edges, row.Stats.Diameter, row.Lookups,
		)
	}
	return t
}
