package bench

import (
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// MergePipelineRow is one measurement of the batched hypermerge pipeline:
// a controlled sequence of view-transferal/hypermerge cycles over n
// reducers at a given written-view fraction, with the pipeline counters
// captured afterwards.
type MergePipelineRow struct {
	N          int
	WrittenPct int // percentage of views written (the rest are read-only)
	Merges     int64
	Slots      int64
	Batches    int64
	Parallel   int64
	Elided     int64 // never-written views recycled without a reduce call
	PoolOps    int64 // pagepool round-trips (bulk ops count one)
	MergeTasks int64 // batches executed by thieves
	Elapsed    time.Duration
}

// MergePipelineResult holds the merge-pipeline study.
type MergePipelineResult struct {
	Workers int
	Rows    []MergePipelineRow
}

// RunMergePipeline exercises the batched, parallel hypermerge pipeline
// under controlled conditions: for each reducer count it drives explicit
// trace cycles — begin a trace, touch every reducer, transfer the views
// out, and hypermerge the deposit back — so that every repetition performs
// exactly one bulk page fetch, one full-width merge and one bulk page
// return, independent of steal luck.  The first cycle adopts views; every
// later cycle reduces n pairs, which is the path that batches and, past
// the threshold, fans out through the scheduler.
//
// Each width also runs at reduced written fractions: the remaining views
// are resolved read-only, so their slots keep a clear written bit and the
// pipeline elides them — the Elided column counts views recycled with no
// reduce call, and at 0% written the PoolOps column shows that a fully
// elided trace performs no pagepool round-trips at all.
func RunMergePipeline(cfg Config) (*MergePipelineResult, error) {
	cfg = cfg.normalize()
	workers := clampWorkers(cfg.MaxWorkers)
	reps := cfg.Repetitions * 8
	if reps < 16 {
		reps = 16
	}
	res := &MergePipelineResult{Workers: workers}
	for _, n := range []int{64, 256, 1024} {
		for _, writtenPct := range []int{100, 50, 0} {
			row, err := runMergePipelineCase(cfg, workers, n, writtenPct, reps)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func runMergePipelineCase(cfg Config, workers, n, writtenPct, reps int) (MergePipelineRow, error) {
	eng := core.NewMM(core.MMConfig{Workers: workers})
	s := core.NewSession(workers, eng)
	defer s.Close()
	if cfg.Exporter != nil {
		// Re-registering under the same names points a live scrape
		// endpoint at the case currently running.
		cfg.Exporter.Register("engine", eng)
		cfg.Exporter.Register("sched", s.Runtime())
		cfg.Exporter.Register("faultinject", metrics.SourceFunc(faultinject.SampleMetrics))
	}
	rs := make([]*core.Reducer, n)
	for i := range rs {
		r, err := eng.Register(addMonoid{})
		if err != nil {
			return MergePipelineRow{}, err
		}
		rs[i] = r
	}
	written := n * writtenPct / 100
	start := time.Now()
	err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		for rep := 0; rep < reps; rep++ {
			tr := eng.BeginTrace(w)
			for i, r := range rs {
				if i < written {
					core.Lookup(eng, c, r).(*addView).v++
				} else {
					word, _ := eng.LookupWord(c, r, 0, false)
					_ = word
				}
			}
			d := eng.EndTrace(w, tr)
			eng.Merge(w, w.CurrentTrace(), d)
		}
	})
	elapsed := time.Since(start)
	ms := eng.MergeStats()
	st := s.Runtime().Stats()
	pool := eng.PoolStats()
	if err != nil {
		return MergePipelineRow{}, err
	}
	return MergePipelineRow{
		N:          n,
		WrittenPct: writtenPct,
		Merges:     ms.Merges,
		Slots:      ms.SlotsMerged,
		Batches:    ms.Batches,
		Parallel:   ms.ParallelMerges,
		Elided:     ms.IdentityElisions,
		PoolOps:    pool.RoundTrips(),
		MergeTasks: st.MergeTasks,
		Elapsed:    elapsed,
	}, nil
}

// addMonoid/addView is a local integer-sum monoid for the pipeline study.
// It opts into arena placement so the study also exercises the view-arena
// recycle path (the views are a fixed-size pointer-free int64).
type addMonoid struct{}

type addView struct{ v int64 }

func (addMonoid) Identity() any { return &addView{} }
func (addMonoid) Reduce(l, r any) any {
	lv := l.(*addView)
	lv.v += r.(*addView).v
	return lv
}
func (addMonoid) ViewBytes() uintptr { return unsafe.Sizeof(addView{}) }

//cilkvet:allow unsafeword -- ArenaMonoid.InitView contract: p is a fresh ViewBytes-sized arena block
func (addMonoid) InitView(p unsafe.Pointer) { *(*addView)(p) = addView{} }

var _ core.ArenaMonoid = addMonoid{}

// Table renders the merge-pipeline study.
func (r *MergePipelineResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Merge pipeline: batched hypermerge with bulk page movement and identity elision",
		"reducers", "written%", "merges", "slots", "batches", "parallel", "elided", "pool ops", "merge tasks", "elapsed")
	for _, row := range r.Rows {
		t.AddRow(row.N, row.WrittenPct, row.Merges, row.Slots, row.Batches, row.Parallel,
			row.Elided, row.PoolOps, row.MergeTasks, row.Elapsed)
	}
	return t
}
