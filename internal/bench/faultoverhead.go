package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// FaultOverheadRow is one headline path measured with the failpoints in
// their two steady states: disabled (no plan active — the production
// configuration, one atomic load per site) and armed-idle (a plan active
// whose rules never become eligible — the full per-hit accounting runs but
// nothing ever fires).  The disabled column is the number that must stay
// within noise of the pre-failpoint baseline; the armed column bounds what
// a chaos run pays on top.
type FaultOverheadRow struct {
	Path     string
	Disabled time.Duration // per-op, no plan active
	Armed    time.Duration // per-op, armed-idle plan active
	Ops      int
}

// FaultOverheadResult is the full dataset of the faultoverhead experiment.
type FaultOverheadResult struct {
	Rows []FaultOverheadRow
}

// Table renders the result as a text table.
func (r *FaultOverheadResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failpoint overhead on the headline paths (per op; armed = active plan, no rule eligible)\n")
	fmt.Fprintf(&b, "%-24s %14s %14s %10s\n", "path", "disabled", "armed-idle", "delta")
	for _, row := range r.Rows {
		delta := "n/a"
		if row.Disabled > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(float64(row.Armed)-float64(row.Disabled))/float64(row.Disabled))
		}
		fmt.Fprintf(&b, "%-24s %14v %14v %10s\n", row.Path, row.Disabled, row.Armed, delta)
	}
	return b.String()
}

// armedIdlePlan builds a plan that arms every compiled-in failpoint with an
// After threshold no run can reach, so every site executes its full
// per-hit accounting (the atomic ordinal increment and eligibility check)
// without ever firing — the worst steady-state cost chaos mode can impose
// while injecting nothing.
func armedIdlePlan() *faultinject.Plan {
	p := faultinject.NewPlan(1)
	for _, id := range faultinject.IDs() {
		p.Arm(id, faultinject.Rule{Prob: 1, After: 1 << 62})
	}
	return p
}

// RunFaultOverhead measures the fork, steal, lookup and merge headline
// paths with failpoints disabled and armed-idle.
func RunFaultOverhead(cfg Config) (*FaultOverheadResult, error) {
	cfg = cfg.normalize()
	res := &FaultOverheadResult{}

	type path struct {
		name string
		ops  int
		run  func() (time.Duration, error)
	}
	forkOps := cfg.Lookups / 16
	if forkOps < 1 {
		forkOps = 1
	}
	stealOps := cfg.Lookups / 64
	if stealOps < 1 {
		stealOps = 1
	}

	// Sessions are created fresh inside each measurement closure: the
	// armed-idle pass must include any chaos-mode cost paid at worker
	// startup and trace bookkeeping, not just the loop body.
	paths := []path{
		{
			// The allocation-free fork fast path on one worker: no steals,
			// so the sched/steal and merge failpoints stay cold and the
			// cost measured is Fork + the job-boundary bookkeeping.
			name: "fork (no steal)",
			ops:  forkOps,
			run: func() (time.Duration, error) {
				s := session(reducers.MemoryMapped, 1, false)
				defer s.Close()
				nop := func(*sched.Context) {}
				start := time.Now()
				err := s.Run(func(c *sched.Context) {
					for i := 0; i < forkOps; i++ {
						c.Fork(nop, nop)
					}
				})
				return time.Since(start), err
			},
		},
		{
			// A grain-1 parallel loop across workers: steal sweeps, parking
			// decisions and view transferal all run.
			name: "steal + transferal",
			ops:  stealOps,
			run: func() (time.Duration, error) {
				s := session(reducers.MemoryMapped, 4, false)
				defer s.Close()
				start := time.Now()
				err := s.Run(func(c *sched.Context) {
					c.ParallelForGrain(0, stealOps, 1, func(*sched.Context, int) {})
				})
				return time.Since(start), err
			},
		},
		{
			// The reducer lookup path of Figure 1 (memory-mapped, one
			// worker): the monoid/identity failpoint sits on its slow path.
			name: "lookup (memory-mapped)",
			ops:  cfg.Lookups,
			run: func() (time.Duration, error) {
				s := session(reducers.MemoryMapped, 1, false)
				defer s.Close()
				return runAddN(s, 4, cfg.Lookups)
			},
		},
		{
			// The same add workload on four workers: steals deposit views
			// and the hypermerge (with its monoid/reduce failpoint) folds
			// them back.
			name: "merge (memory-mapped)",
			ops:  cfg.Lookups,
			run: func() (time.Duration, error) {
				s := session(reducers.MemoryMapped, 4, false)
				defer s.Close()
				return runAddN(s, 4, cfg.Lookups)
			},
		},
	}

	for _, p := range paths {
		disabled, err := measure(cfg.Repetitions, p.run)
		if err != nil {
			return nil, fmt.Errorf("bench: %s disabled: %w", p.name, err)
		}
		deactivate := faultinject.Activate(armedIdlePlan())
		armed, err := measure(cfg.Repetitions, p.run)
		deactivate()
		if err != nil {
			return nil, fmt.Errorf("bench: %s armed: %w", p.name, err)
		}
		res.Rows = append(res.Rows, FaultOverheadRow{
			Path:     p.name,
			Disabled: perOpDuration(disabled, p.ops),
			Armed:    perOpDuration(armed, p.ops),
			Ops:      p.ops,
		})
	}
	return res, nil
}

// perOpDuration converts a sample's best run into a per-operation duration.
func perOpDuration(s metrics.Sample, ops int) time.Duration {
	if ops < 1 {
		ops = 1
	}
	return time.Duration(s.Min() / float64(ops) * float64(time.Second))
}
