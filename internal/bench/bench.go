// Package bench contains the experiment harness that regenerates every
// table and figure in the paper's evaluation (Section 8): the add-n /
// min-n / max-n microbenchmarks of Figure 4, the lookup-overhead and
// reduce-overhead studies, the speedup curves, and the PBFS comparison.
//
// The harness measures this reproduction's two reducer mechanisms — the
// memory-mapped Cilk-M mechanism and the hypermap Cilk Plus baseline —
// running on the same scheduler, so the reported ratios isolate the reducer
// mechanism exactly as the paper's experiments do.  Absolute times are not
// comparable with the paper's AMD Opteron numbers; the shapes and ratios
// are what the reproduction targets.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// Config controls experiment sizing.
type Config struct {
	// MaxWorkers is the largest worker count used by parallel experiments
	// (the paper uses 16).
	MaxWorkers int
	// Lookups is the number of reducer lookups each microbenchmark
	// performs (the paper uses 1024 million; the default here is far
	// smaller so experiments finish quickly on modest machines).
	Lookups int
	// Repetitions is the number of runs averaged per data point.
	Repetitions int
	// GraphScale scales the synthetic PBFS input graphs relative to the
	// paper's inputs (1.0 reproduces the paper's sizes).
	GraphScale float64
	// Seed seeds workload generation.
	Seed int64
	// Exporter, when non-nil, receives the live engine, scheduler and
	// fault-injection metric sources of each experiment as it runs, so a
	// scrape endpoint (cilkbench -metrics-addr) follows the experiment
	// currently executing.  Experiments that rebuild their engine per case
	// re-register under the same source names.
	Exporter *metrics.Exporter
}

// DefaultConfig returns a configuration sized for a laptop-class machine.
func DefaultConfig() Config {
	return Config{
		MaxWorkers:  16,
		Lookups:     2_000_000,
		Repetitions: 3,
		GraphScale:  1.0 / 128,
		Seed:        20120625, // SPAA'12 started June 25, 2012
	}
}

// QuickConfig returns a configuration small enough for unit tests and smoke
// runs.
func QuickConfig() Config {
	return Config{
		MaxWorkers: 4,
		Lookups:    60_000,
		// Three repetitions (each data point keeps the minimum): with a
		// single rep the fig1 shape assertion flakes on noisy shared-CPU
		// hosts.
		Repetitions: 3,
		GraphScale:  1.0 / 2048,
		Seed:        1,
	}
}

// normalize fills in zero fields with defaults.
func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = d.MaxWorkers
	}
	if c.Lookups <= 0 {
		c.Lookups = d.Lookups
	}
	if c.Repetitions <= 0 {
		c.Repetitions = d.Repetitions
	}
	if c.GraphScale <= 0 {
		c.GraphScale = d.GraphScale
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// ReducerCounts is the sweep of reducer counts used by Figures 5, 7 and 8.
var ReducerCounts = []int{4, 16, 64, 256, 1024}

// FineReducerCounts is the denser sweep used by Figures 6 and 7.
var FineReducerCounts = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}

// SpeedupWorkerCounts is the worker sweep of Figure 9.
var SpeedupWorkerCounts = []int{1, 2, 4, 8, 16}

// Workload identifies one of the paper's microbenchmarks (Figure 4).
type Workload int

// Microbenchmark workloads.
const (
	WorkloadAdd Workload = iota
	WorkloadMin
	WorkloadMax
	WorkloadAddBase
)

// String returns the workload's name in the paper's notation, without the
// reducer count.
func (w Workload) String() string {
	switch w {
	case WorkloadAdd:
		return "add"
	case WorkloadMin:
		return "min"
	case WorkloadMax:
		return "max"
	case WorkloadAddBase:
		return "add-base"
	default:
		return fmt.Sprintf("workload(%d)", int(w))
	}
}

// WorkloadName formats the paper's "add-n" style name.
func WorkloadName(w Workload, n int) string { return fmt.Sprintf("%s-%d", w, n) }

// xorshift is the cheap PRNG the min/max workloads use to generate values
// without perturbing timing.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// session creates a session with the given mechanism and worker count,
// sized for the harness.
func session(m reducers.Mechanism, workers int, timing bool) *core.Session {
	eng := reducers.NewEngine(m, workers, reducers.EngineOptions{Timing: timing})
	return core.NewSessionWithConfig(sched.Config{Workers: workers}, eng)
}

// export points the scrape endpoint, if there is one, at the session about
// to run; registration replaces by name.
func (c Config) export(s *core.Session) {
	if c.Exporter == nil {
		return
	}
	if src, ok := s.Engine().(metrics.Source); ok {
		c.Exporter.Register("engine", src)
	}
	c.Exporter.Register("sched", s.Runtime())
	c.Exporter.Register("faultinject", metrics.SourceFunc(faultinject.SampleMetrics))
}

// chunkSize is the number of lookups each parallel-loop iteration performs
// serially.  The paper's microbenchmarks are tight serial loops inside a
// cilk_for; chunking keeps the harness's per-iteration closure overhead
// from masking the per-lookup cost being measured.
const chunkSize = 256

// chunks returns how many chunk iterations cover x lookups.
func chunks(x int) int { return (x + chunkSize - 1) / chunkSize }

// runAddN executes the add-n workload on an existing session: x iterations
// in a parallel loop, each adding 1 to one of n add reducers.
func runAddN(s *core.Session, n, x int) (time.Duration, error) {
	eng := s.Engine()
	sums := make([]*reducers.Add[int64], n)
	for i := range sums {
		sums[i] = reducers.NewAdd[int64](eng)
	}
	nChunks := chunks(x)
	start := time.Now()
	err := s.Run(func(c *sched.Context) {
		c.ParallelFor(0, nChunks, func(c *sched.Context, chunk int) {
			lo := chunk * chunkSize
			hi := lo + chunkSize
			if hi > x {
				hi = x
			}
			idx := lo % n
			for i := lo; i < hi; i++ {
				sums[idx].Add(c, 1)
				idx++
				if idx == n {
					idx = 0
				}
			}
		})
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	// Sanity: the reducers must hold exactly x increments in total.
	var total int64
	for _, sr := range sums {
		total += sr.Value()
		sr.Close()
	}
	if total != int64(x) {
		return 0, fmt.Errorf("bench: add-%d produced %d, want %d", n, total, x)
	}
	return elapsed, nil
}

// runMinMaxN executes the min-n or max-n workload: x random values are
// processed in a parallel loop, folding each into one of n min/max
// reducers.
func runMinMaxN(s *core.Session, w Workload, n, x int, seed int64) (time.Duration, error) {
	eng := s.Engine()
	var mins []*reducers.Min[uint64]
	var maxs []*reducers.Max[uint64]
	if w == WorkloadMin {
		mins = make([]*reducers.Min[uint64], n)
		for i := range mins {
			mins[i] = reducers.NewMin[uint64](eng)
		}
	} else {
		maxs = make([]*reducers.Max[uint64], n)
		for i := range maxs {
			maxs[i] = reducers.NewMax[uint64](eng)
		}
	}
	base := uint64(seed)*2654435761 + 1
	nChunks := chunks(x)
	start := time.Now()
	err := s.Run(func(c *sched.Context) {
		c.ParallelFor(0, nChunks, func(c *sched.Context, chunk int) {
			lo := chunk * chunkSize
			hi := lo + chunkSize
			if hi > x {
				hi = x
			}
			idx := lo % n
			if w == WorkloadMin {
				for i := lo; i < hi; i++ {
					mins[idx].Update(c, xorshift(base+uint64(i)))
					idx++
					if idx == n {
						idx = 0
					}
				}
			} else {
				for i := lo; i < hi; i++ {
					maxs[idx].Update(c, xorshift(base+uint64(i)))
					idx++
					if idx == n {
						idx = 0
					}
				}
			}
		})
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	for _, r := range mins {
		if _, ok := r.Value(); !ok && x >= n {
			return 0, fmt.Errorf("bench: min reducer never updated")
		}
		r.Close()
	}
	for _, r := range maxs {
		if _, ok := r.Value(); !ok && x >= n {
			return 0, fmt.Errorf("bench: max reducer never updated")
		}
		r.Close()
	}
	return elapsed, nil
}

// runAddBaseN executes the add-base-n workload of the lookup-overhead study
// (Figure 6): the same loop as add-n but updating a plain array instead of
// reducers, so the difference between the two isolates the lookup cost.
// The paper runs it on a single processor; callers must pass a one-worker
// session to avoid races on the plain array.
func runAddBaseN(s *core.Session, n, x int) (time.Duration, error) {
	type paddedCell struct {
		v int64
		_ [56]byte
	}
	cells := make([]paddedCell, n)
	nChunks := chunks(x)
	start := time.Now()
	err := s.Run(func(c *sched.Context) {
		c.ParallelFor(0, nChunks, func(_ *sched.Context, chunk int) {
			lo := chunk * chunkSize
			hi := lo + chunkSize
			if hi > x {
				hi = x
			}
			idx := lo % n
			for i := lo; i < hi; i++ {
				cells[idx].v++
				idx++
				if idx == n {
					idx = 0
				}
			}
		})
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	var total int64
	for i := range cells {
		total += cells[i].v
	}
	if total != int64(x) {
		return 0, fmt.Errorf("bench: add-base-%d produced %d, want %d", n, total, x)
	}
	return elapsed, nil
}

// runWorkload dispatches one workload run on a session.
func runWorkload(s *core.Session, w Workload, n, x int, seed int64) (time.Duration, error) {
	switch w {
	case WorkloadAdd:
		return runAddN(s, n, x)
	case WorkloadMin, WorkloadMax:
		return runMinMaxN(s, w, n, x, seed)
	case WorkloadAddBase:
		return runAddBaseN(s, n, x)
	default:
		return 0, fmt.Errorf("bench: unknown workload %v", w)
	}
}

// measure repeats a run and returns timing statistics.
func measure(reps int, run func() (time.Duration, error)) (metrics.Sample, error) {
	var s metrics.Sample
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		d, err := run()
		if err != nil {
			return s, err
		}
		s.AddDuration(d)
	}
	return s, nil
}

// clampWorkers limits a requested worker count to something sane for the
// host (oversubscription beyond 4× the available CPUs mostly measures
// scheduling noise).
func clampWorkers(requested int) int {
	if requested < 1 {
		return 1
	}
	limit := 4 * runtime.NumCPU()
	if limit < 16 {
		limit = 16
	}
	if requested > limit {
		return limit
	}
	return requested
}
