package bench

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/reducers"
)

// Fig7Row is one cluster of Figures 7 and 8: the reduce overhead of add-n
// during a parallel execution, measured by instrumenting the runtime, for
// each mechanism, along with its breakdown into the four categories the
// paper reports.
type Fig7Row struct {
	N int
	// Breakdown maps mechanism → instrumented overhead breakdown.
	Breakdown map[reducers.Mechanism]metrics.Breakdown
	// Steals maps mechanism → number of successful steals during the
	// measured run (the paper verifies these are comparable across
	// systems, since reduce overhead is proportional to steals).
	Steals map[reducers.Mechanism]int64
	// Elapsed maps mechanism → wall-clock time of the measured run.
	Elapsed map[reducers.Mechanism]time.Duration
}

// Total returns the total reduce overhead for one mechanism.
func (r Fig7Row) Total(m reducers.Mechanism) time.Duration {
	return r.Breakdown[m].Total()
}

// Fig7Result holds the reduce-overhead study (Figure 7) and its breakdown
// (Figure 8).
type Fig7Result struct {
	Workers int
	Lookups int
	Rows    []Fig7Row
}

// RunFig7 reproduces Figures 7 and 8: the reduce overhead — time spent
// creating views, inserting views, transferring views and hypermerging —
// incurred by add-n during parallel execution, for both mechanisms.  The
// paper runs this study with twice the usual number of lookups to prolong
// execution; the harness follows suit.
func RunFig7(cfg Config) (*Fig7Result, error) {
	cfg = cfg.normalize()
	workers := clampWorkers(cfg.MaxWorkers)
	lookups := cfg.Lookups * 2
	res := &Fig7Result{Workers: workers, Lookups: lookups}
	for _, n := range FineReducerCounts {
		row := Fig7Row{
			N:         n,
			Breakdown: make(map[reducers.Mechanism]metrics.Breakdown),
			Steals:    make(map[reducers.Mechanism]int64),
			Elapsed:   make(map[reducers.Mechanism]time.Duration),
		}
		for _, mech := range reducers.Mechanisms() {
			s := session(mech, workers, true)
			cfg.export(s)
			var agg metrics.Breakdown
			var steals int64
			sample, err := measure(cfg.Repetitions, func() (time.Duration, error) {
				s.Engine().ResetOverheads()
				s.Runtime().ResetStats()
				d, err := runAddN(s, n, lookups)
				if err != nil {
					return 0, err
				}
				agg.Add(s.Engine().Overheads())
				steals += s.Runtime().Stats().Steals
				return d, nil
			})
			s.Close()
			if err != nil {
				return nil, err
			}
			// Average the accumulated overhead over the repetitions.
			reps := int64(cfg.Repetitions)
			if reps < 1 {
				reps = 1
			}
			for i := range agg.Nanos {
				agg.Nanos[i] /= reps
				agg.Counts[i] /= reps
			}
			row.Breakdown[mech] = agg
			row.Steals[mech] = steals / reps
			row.Elapsed[mech] = time.Duration(sample.Mean() * float64(time.Second))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fig7Table renders the reduce-overhead comparison (Figure 7).
func (r *Fig7Result) Fig7Table() *metrics.Table {
	t := metrics.NewTable(
		"Figure 7: reduce overhead of add-n during parallel execution",
		"benchmark", "Cilk-M (mm)", "Cilk Plus (hypermap)", "hypermap / mm", "steals (mm)", "steals (hm)")
	for _, row := range r.Rows {
		mm := row.Total(reducers.MemoryMapped)
		hm := row.Total(reducers.Hypermap)
		ratio := 0.0
		if mm > 0 {
			ratio = float64(hm) / float64(mm)
		}
		t.AddRow(
			WorkloadName(WorkloadAdd, row.N),
			mm, hm, ratio,
			row.Steals[reducers.MemoryMapped],
			row.Steals[reducers.Hypermap],
		)
	}
	return t
}

// Fig8Table renders the breakdown of the memory-mapped mechanism's reduce
// overhead (Figure 8).
func (r *Fig7Result) Fig8Table() *metrics.Table {
	t := metrics.NewTable(
		"Figure 8: breakdown of the Cilk-M reduce overhead for add-n",
		"benchmark", "view creation", "view insertion", "hypermerge", "view transferal", "total")
	for _, row := range r.Rows {
		b := row.Breakdown[reducers.MemoryMapped]
		t.AddRow(
			WorkloadName(WorkloadAdd, row.N),
			b.Duration(metrics.ViewCreation),
			b.Duration(metrics.ViewInsertion),
			b.Duration(metrics.Hypermerge),
			b.Duration(metrics.ViewTransferal),
			b.Total(),
		)
	}
	return t
}

// OverheadGrowth returns the ratio of the reduce overhead at the largest n
// to the overhead at the smallest n for the given mechanism; the paper
// observes that the hypermap overhead grows much faster with n than the
// memory-mapped overhead.
func (r *Fig7Result) OverheadGrowth(m reducers.Mechanism) float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	first := r.Rows[0].Total(m).Seconds()
	last := r.Rows[len(r.Rows)-1].Total(m).Seconds()
	if first <= 0 {
		return 0
	}
	return last / first
}
