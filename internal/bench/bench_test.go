package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// quickCfg returns a configuration sized so the whole experiment suite runs
// in seconds.
func quickCfg() Config {
	c := QuickConfig()
	c.Lookups = 200_000
	return c
}

func TestConfigNormalize(t *testing.T) {
	var c Config
	n := c.normalize()
	d := DefaultConfig()
	if n.MaxWorkers != d.MaxWorkers || n.Lookups != d.Lookups || n.Repetitions != d.Repetitions ||
		n.GraphScale != d.GraphScale || n.Seed != d.Seed {
		t.Fatalf("normalize of zero config = %+v, want defaults %+v", n, d)
	}
	c = Config{MaxWorkers: 2, Lookups: 10, Repetitions: 1, GraphScale: 0.5, Seed: 9}
	if c.normalize() != c {
		t.Fatal("normalize should not modify a fully specified config")
	}
}

func TestWorkloadNames(t *testing.T) {
	if WorkloadName(WorkloadAdd, 64) != "add-64" {
		t.Fatalf("WorkloadName = %q", WorkloadName(WorkloadAdd, 64))
	}
	if WorkloadMin.String() != "min" || WorkloadMax.String() != "max" || WorkloadAddBase.String() != "add-base" {
		t.Fatal("workload names wrong")
	}
	if !strings.Contains(Workload(9).String(), "9") {
		t.Fatal("unknown workload string")
	}
}

func TestClampWorkers(t *testing.T) {
	if clampWorkers(0) != 1 || clampWorkers(-3) != 1 {
		t.Fatal("clampWorkers should floor at 1")
	}
	if clampWorkers(8) != 8 {
		t.Fatal("clampWorkers should not change reasonable counts")
	}
	if clampWorkers(100000) > 1024 {
		t.Fatal("clampWorkers should bound absurd counts")
	}
}

func TestRunWorkloadUnknown(t *testing.T) {
	s := session(reducers.MemoryMapped, 1, false)
	defer s.Close()
	if _, err := runWorkload(s, Workload(99), 4, 100, 1); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestWorkloadsProduceCorrectResults(t *testing.T) {
	for _, mech := range reducers.Mechanisms() {
		s := session(mech, 2, false)
		for _, w := range []Workload{WorkloadAdd, WorkloadMin, WorkloadMax, WorkloadAddBase} {
			if w == WorkloadAddBase {
				// add-base must run on one worker; use a dedicated session.
				s1 := session(mech, 1, false)
				if _, err := runWorkload(s1, w, 8, 5000, 3); err != nil {
					t.Fatalf("%v/%v: %v", mech, w, err)
				}
				s1.Close()
				continue
			}
			if _, err := runWorkload(s, w, 8, 5000, 3); err != nil {
				t.Fatalf("%v/%v: %v", mech, w, err)
			}
		}
		s.Close()
	}
}

// bestOfThree returns the best of up to three readings of measure, stopping
// at the first above threshold.  The ratios asserted through it compare two
// wall-clock runs of a few milliseconds each; one descheduled slice on a
// busy 2-CPU box sinks a single reading, so a reading only counts as a
// failure when three in a row agree.
func bestOfThree(threshold float64, measure func() float64) float64 {
	best := measure()
	for i := 1; i < 3 && best <= threshold; i++ {
		best = max(best, measure())
	}
	return best
}

func TestFig1(t *testing.T) {
	var res *Fig1Result
	speedup := bestOfThree(0.7, func() float64 {
		var err error
		if res, err = RunFig1(quickCfg()); err != nil {
			t.Fatalf("RunFig1: %v", err)
		}
		return res.MMFasterThanHypermap()
	})
	if len(res.Rows) != 4 {
		t.Fatalf("Figure 1 should have 4 bars, got %d", len(res.Rows))
	}
	names := []string{"L1-memory", "memory-mapped", "hypermap", "locking"}
	for i, want := range names {
		if res.Rows[i].Name != want {
			t.Fatalf("row %d = %q, want %q", i, res.Rows[i].Name, want)
		}
		if res.Rows[i].PerOp <= 0 || res.Rows[i].Normalized <= 0 {
			t.Fatalf("row %q has non-positive measurements: %+v", want, res.Rows[i])
		}
	}
	if res.Rows[0].Normalized != 1.0 {
		t.Fatalf("L1 row should be normalised to 1, got %v", res.Rows[0].Normalized)
	}
	// The headline shape — memory-mapped lookups cheaper than hypermap
	// lookups — is asserted loosely here because this quick configuration
	// measures only a few hundred thousand lookups and the two mechanisms
	// are within noise of each other at n = 4 on slow hosts; the recorded
	// benchmarks (BenchmarkFig1LookupOverhead, BenchmarkFig6LookupOverhead)
	// and the cilkbench harness measure the shape at full size.
	if speedup <= 0.7 {
		t.Fatalf("memory-mapped lookups dramatically slower than hypermap, speedup = %.2f", speedup)
	}
	if res.basePerOpSeconds() <= 0 {
		t.Fatal("base per-op time should be positive")
	}
	out := res.Table().String()
	if !strings.Contains(out, "hypermap") || !strings.Contains(out, "Figure 1") {
		t.Fatalf("table rendering incomplete:\n%s", out)
	}
}

// traceCycleNanos times the paper's reduce overhead in isolation on one
// worker of mech's engine: per cycle a fresh trace pays a first lookup for
// each of n reducers (every other one read-only, which is lent the
// trace's zero block and creates no view), ends — view transferal — and
// has its deposit folded into the
// leftmost views by a root hypermerge.  It returns the nanoseconds per
// cycle after a warm-up.
func traceCycleNanos(t *testing.T, mech reducers.Mechanism, n, cycles int) float64 {
	t.Helper()
	s := session(mech, 1, false)
	defer s.Close()
	eng := s.Engine()
	hs := make([]*reducers.Add[int64], n)
	for i := range hs {
		hs[i] = reducers.NewAdd[int64](eng)
	}
	var elapsed time.Duration
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		cycle := func() {
			tr := eng.BeginTrace(w)
			for i, h := range hs {
				eng.LookupWord(c, h.Reducer(), 0, i&1 == 0)
			}
			eng.MergeRootDeposit(eng.EndTrace(w, tr))
		}
		for i := 0; i < cycles/4; i++ {
			cycle()
		}
		start := time.Now()
		for i := 0; i < cycles; i++ {
			cycle()
		}
		elapsed = time.Since(start)
	}); err != nil {
		t.Fatalf("%v: Run: %v", mech, err)
	}
	if err := s.Quiescent(); err != nil {
		t.Fatalf("%v: not quiescent: %v", mech, err)
	}
	return float64(elapsed.Nanoseconds()) / float64(cycles)
}

// TestTraceCycleOrdering pins the paper's second claim (Figs. 7–9) as an
// ordering: view creation, insertion, transferal and hypermerge together
// cost the memory-mapped mechanism no more than the hypermap, at a reducer
// count where the hash table has left the cache-resident regime.  The bound
// is 1.0 — the measured margin is about 2× — and, like TestFig1, a reading
// only fails when three in a row agree.  Under the race detector, whose
// instrumentation skews the two engines differently, both cycles still run
// and are checked quiescent, but their ratio is not asserted.
func TestTraceCycleOrdering(t *testing.T) {
	const n, cycles = 256, 2000
	measure := func() float64 {
		hm := traceCycleNanos(t, reducers.Hypermap, n, cycles)
		mm := traceCycleNanos(t, reducers.MemoryMapped, n, cycles)
		t.Logf("trace cycle over %d reducers: memory-mapped %.0f ns, hypermap %.0f ns", n, mm, hm)
		return hm / mm
	}
	if raceEnabled {
		measure()
		return
	}
	if ratio := bestOfThree(1.0, measure); ratio < 1.0 {
		t.Fatalf("memory-mapped trace cycle costs %.2f× the hypermap's; the paper's ordering has flipped", 1/ratio)
	}
}

func TestFig5Serial(t *testing.T) {
	var res *Fig5Result
	ratio := bestOfThree(0.85, func() float64 {
		var err error
		if res, err = RunFig5(quickCfg(), false); err != nil {
			t.Fatalf("RunFig5: %v", err)
		}
		return res.MeanRatio()
	})
	if res.Workers != 1 {
		t.Fatalf("serial study should use one worker, got %d", res.Workers)
	}
	if len(res.Rows) != 3*len(ReducerCounts) {
		t.Fatalf("expected %d clusters, got %d", 3*len(ReducerCounts), len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, mech := range reducers.Mechanisms() {
			if row.Time[mech] <= 0 {
				t.Fatalf("%s has non-positive time for %v", WorkloadName(row.Workload, row.N), mech)
			}
		}
	}
	// The headline shape: the memory-mapped mechanism is not slower than
	// the hypermap mechanism on average across the sweep.  The threshold
	// admits timing noise at this reduced workload size; the full-size
	// sweep is recorded by cilkbench and the Figure 5 benchmarks.
	if ratio <= 0.85 {
		t.Fatalf("expected hypermap/mm ratio near or above 1, got %.2f", ratio)
	}
	out := res.Table().String()
	if !strings.Contains(out, "add-1024") || !strings.Contains(out, "max-4") {
		t.Fatalf("table missing clusters:\n%s", out)
	}
}

func TestFig5Parallel(t *testing.T) {
	cfg := quickCfg()
	cfg.MaxWorkers = 2
	res, err := RunFig5(cfg, true)
	if err != nil {
		t.Fatalf("RunFig5: %v", err)
	}
	if res.Workers != 2 {
		t.Fatalf("parallel study should use 2 workers, got %d", res.Workers)
	}
	if !strings.Contains(res.Table().String(), "Figure 5(b)") {
		t.Fatal("parallel table should be labelled 5(b)")
	}
}

func TestFig6(t *testing.T) {
	// The memory-mapped lookup overhead should be the smaller one in the
	// majority of clusters (allowing for noise at this reduced size): the
	// test fails when it is the larger one in more than two thirds of them.
	n := len(FineReducerCounts)
	var res *Fig6Result
	mmNotWorse := bestOfThree(float64(n-2*n/3-1), func() float64 {
		var err error
		if res, err = RunFig6(quickCfg()); err != nil {
			t.Fatalf("RunFig6: %v", err)
		}
		if len(res.Rows) != n {
			t.Fatalf("expected %d rows, got %d", n, len(res.Rows))
		}
		notWorse := 0
		for _, row := range res.Rows {
			if row.Overhead[reducers.Hypermap] >= row.Overhead[reducers.MemoryMapped] {
				notWorse++
			}
		}
		return float64(notWorse)
	})
	if mmWorse := n - int(mmNotWorse); mmWorse > 2*n/3 {
		t.Fatalf("memory-mapped lookup overhead larger than hypermap in %d of %d clusters", mmWorse, n)
	}
	if !strings.Contains(res.Table().String(), "add-512") {
		t.Fatal("table missing rows")
	}
	_ = res.OverheadSpread(reducers.MemoryMapped)
	_ = res.OverheadSpread(reducers.Hypermap)
}

func TestFig7And8(t *testing.T) {
	cfg := quickCfg()
	cfg.MaxWorkers = 4
	cfg.Lookups = 100_000
	res, err := RunFig7(cfg)
	if err != nil {
		t.Fatalf("RunFig7: %v", err)
	}
	if res.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", res.Workers)
	}
	if len(res.Rows) != len(FineReducerCounts) {
		t.Fatalf("expected %d rows, got %d", len(FineReducerCounts), len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, mech := range reducers.Mechanisms() {
			if row.Elapsed[mech] <= 0 {
				t.Fatalf("n=%d %v: non-positive elapsed time", row.N, mech)
			}
		}
	}
	t7 := res.Fig7Table().String()
	t8 := res.Fig8Table().String()
	if !strings.Contains(t7, "Figure 7") || !strings.Contains(t8, "Figure 8") {
		t.Fatal("tables mislabelled")
	}
	if !strings.Contains(t8, "view transferal") {
		t.Fatal("Figure 8 table missing breakdown columns")
	}
	_ = res.OverheadGrowth(reducers.MemoryMapped)
	_ = res.OverheadGrowth(reducers.Hypermap)
}

func TestFig9(t *testing.T) {
	cfg := quickCfg()
	cfg.Lookups = 100_000
	res, err := RunFig9(cfg)
	if err != nil {
		t.Fatalf("RunFig9: %v", err)
	}
	if len(res.Rows) != len(ReducerCounts)*len(SpeedupWorkerCounts) {
		t.Fatalf("expected %d rows, got %d", len(ReducerCounts)*len(SpeedupWorkerCounts), len(res.Rows))
	}
	for _, n := range ReducerCounts {
		if got := res.SpeedupAt(n, 1); got < 0.99 || got > 1.01 {
			t.Fatalf("speedup at P=1 should be 1.0, got %v for n=%d", got, n)
		}
		if res.SerialTime[n] <= 0 {
			t.Fatalf("missing serial time for n=%d", n)
		}
	}
	if res.SpeedupAt(4, 999) != 0 {
		t.Fatal("SpeedupAt for a missing point should return 0")
	}
	if !strings.Contains(res.Table().String(), "Figure 9") {
		t.Fatal("table mislabelled")
	}
}

func TestFig10(t *testing.T) {
	cfg := quickCfg()
	cfg.MaxWorkers = 2
	cfg.Repetitions = 1
	res, err := RunFig10(cfg, []string{"rmat23", "grid3d200"})
	if err != nil {
		t.Fatalf("RunFig10: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Stats.Vertices == 0 || row.Stats.Edges == 0 {
			t.Fatalf("%s: empty stand-in graph", row.Spec.Name)
		}
		if row.SerialRatio() <= 0 || row.ParallelRatio() <= 0 {
			t.Fatalf("%s: non-positive ratios", row.Spec.Name)
		}
		if row.Lookups <= 0 {
			t.Fatalf("%s: no reducer lookups recorded", row.Spec.Name)
		}
	}
	a := res.Fig10aTable().String()
	b := res.Fig10bTable().String()
	if !strings.Contains(a, "rmat23") || !strings.Contains(b, "grid3d200") {
		t.Fatal("tables missing graphs")
	}
	if _, err := RunFig10(cfg, []string{"not-a-graph"}); err == nil {
		t.Fatal("unknown input name should fail")
	}
}

// TestRunFaultOverheadQuick smoke-runs the failpoint-overhead experiment at
// the quick configuration (nothing else in tier-1 executes it): every
// headline path yields a row measured in both failpoint states, and the
// armed-idle plan is deactivated again on the way out.
func TestRunFaultOverheadQuick(t *testing.T) {
	res, err := RunFaultOverhead(QuickConfig())
	if err != nil {
		t.Fatalf("RunFaultOverhead: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (fork, steal, lookup, merge)", len(res.Rows))
	}
	table := res.Table()
	for _, row := range res.Rows {
		if row.Disabled <= 0 || row.Armed <= 0 || row.Ops <= 0 {
			t.Errorf("row %+v: non-positive measurement", row)
		}
		if !strings.Contains(table, row.Path) {
			t.Errorf("table misses path %q", row.Path)
		}
	}
	if faultinject.Enabled() {
		t.Error("armed-idle plan still active after the experiment")
	}
}
