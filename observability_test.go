package cilkm_test

import (
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	cilkm "repro"
	"repro/internal/core"
)

// mergeHeavyRun drives a session through a steal- and merge-heavy workload:
// random fork trees appending to a list reducer (forcing ordered
// hypermerges) plus an arena-eligible sum reducer, repeated so arena free
// lists see reuse.
func mergeHeavyRun(t *testing.T, s *cilkm.Session) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sum := cilkm.NewAdd[int64](s.Engine())
	defer sum.Close()
	// watched is only ever read: its identity views carry no writes, so the
	// hypermerge elides every one of them — the elision-rate signal.
	watched := cilkm.NewAdd[int64](s.Engine())
	defer watched.Close()
	for round := 0; round < 40; round++ {
		tree := genTree(rng, 80)
		list := cilkm.NewList[int](s.Engine())
		err := s.Run(func(c *cilkm.Context) {
			parallelTrace(c, list, tree, true)
			c.ParallelFor(0, 64, func(c *cilkm.Context, i int) {
				if i%8 == 0 {
					time.Sleep(time.Microsecond)
				}
				sum.Add(c, 1)
				_ = *watched.ReadView(c)
			})
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		list.Close()
	}
}

// TestExporterMatchesMergeStatsMM pins the tentpole contract on the
// memory-mapped engine: every pipeline counter visible through the
// exporter equals the engine's own MergeStats snapshot after a merge-heavy
// run, and the headline signals (steals, elisions, batch occupancy, arena
// hit rate) are nonzero.
func TestExporterMatchesMergeStatsMM(t *testing.T) {
	exp := cilkm.NewExporter()
	s := cilkm.New(
		cilkm.WithMechanism(cilkm.MemoryMapped),
		cilkm.WithWorkers(4),
		cilkm.WithMetricsExporter(exp),
	)
	defer s.Close()
	mergeHeavyRun(t, s)
	if err := s.Quiescent(); err != nil {
		t.Fatal(err)
	}

	mm := s.Engine().(*core.MM)
	ms := mm.MergeStats()
	m := exp.ExpvarMap()

	for name, want := range map[string]int64{
		"cilkm_merges_total.mm":            ms.Merges,
		"cilkm_merge_slots_total.mm":       ms.SlotsMerged,
		"cilkm_merge_reduces_total.mm":     ms.Reduces,
		"cilkm_merge_batches_total.mm":     ms.Batches,
		"cilkm_stale_view_drops_total.mm":  ms.StaleViewDrops,
		"cilkm_identity_elisions_total.mm": ms.IdentityElisions,
		"cilkm_lookups_total.mm":           cilkm.LookupCount(mm),
	} {
		got, ok := m[name]
		if !ok {
			t.Errorf("exporter missing %s", name)
			continue
		}
		if int64(got) != want {
			t.Errorf("%s = %v, exporter disagrees with MergeStats %d", name, got, want)
		}
	}

	for _, name := range []string{
		"cilkm_sched_steals_total",
		"cilkm_identity_elisions_total.mm",
		"cilkm_merge_batch_occupancy.mm",
		"cilkm_arena_hit_rate.mm",
		"cilkm_merges_total.mm",
		"cilkm_pagepool_round_trips_total.mm",
		"cilkm_directory_registers_total.mm",
	} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want nonzero after a merge-heavy run", name, m[name])
		}
	}

	// The same samples must render on the HTTP endpoint in both formats.
	rec := httptest.NewRecorder()
	exp.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, `cilkm_merges_total{engine="mm"}`) {
		t.Errorf("Prometheus endpoint missing merge counter:\n%.400s", body)
	}
	rec = httptest.NewRecorder()
	exp.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=expvar", nil))
	if body := rec.Body.String(); !strings.Contains(body, "cilkm_merges_total.mm") {
		t.Errorf("expvar endpoint missing merge counter:\n%.400s", body)
	}
}

// TestExporterMatchesStatsHypermap pins the same contract on the baseline
// engine, which exports the subset of signals it tracks.
func TestExporterMatchesStatsHypermap(t *testing.T) {
	exp := cilkm.NewExporter()
	s := cilkm.New(
		cilkm.WithMechanism(cilkm.Hypermap),
		cilkm.WithWorkers(4),
		cilkm.WithCountLookups(),
		cilkm.WithMetricsExporter(exp),
	)
	defer s.Close()
	mergeHeavyRun(t, s)
	if err := s.Quiescent(); err != nil {
		t.Fatal(err)
	}

	eng := s.Engine()
	m := exp.ExpvarMap()
	if got, want := int64(m["cilkm_lookups_total.hypermap"]), cilkm.LookupCount(eng); got != want || want == 0 {
		t.Errorf("cilkm_lookups_total.hypermap = %d, engine reports %d, want equal and nonzero", got, want)
	}
	if m["cilkm_sched_steals_total"] <= 0 {
		t.Error("cilkm_sched_steals_total = 0, want steals on a fork-heavy run")
	}
	if m["cilkm_directory_registers_total.hypermap"] <= 0 {
		t.Error("hypermap directory registrations missing from exporter")
	}
}

// TestAdaptiveMergeEquivalence reruns the repository's determinism
// property with the adaptive tuner enabled: for random fork trees the
// parallel list equals the serial preorder on both mechanisms, whatever
// knob values the tuner converges to.  Tuning only changes merge
// partitioning granularity, so results must be bit-identical.
func TestAdaptiveMergeEquivalence(t *testing.T) {
	for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
		s := cilkm.New(
			cilkm.WithMechanism(mech),
			cilkm.WithWorkers(3),
			cilkm.WithAdaptiveMerge(),
		)
		rng := rand.New(rand.NewSource(99))
		for round := 0; round < 40; round++ {
			tree := genTree(rng, 120)
			var want []int
			serialTrace(tree, &want)
			list := cilkm.NewList[int](s.Engine())
			err := s.Run(func(c *cilkm.Context) {
				parallelTrace(c, list, tree, true)
			})
			if err != nil {
				t.Fatalf("%v round %d: %v", mech, round, err)
			}
			got := list.Value()
			list.Close()
			if len(got) != len(want) {
				t.Fatalf("%v round %d: length %d, want %d", mech, round, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v round %d: position %d: got %d, want %d", mech, round, i, got[i], want[i])
				}
			}
		}
		s.Close()
	}
}

// TestAdaptiveMergeRetunesAndRespectsOverrides drives enough hypermerges
// through an adaptive engine for the tuner to fire, then checks that the
// knobs stay inside the documented clamps — and that an explicitly
// configured batch size is never touched.
func TestAdaptiveMergeRetunesAndRespectsOverrides(t *testing.T) {
	s := cilkm.New(
		cilkm.WithMechanism(cilkm.MemoryMapped),
		cilkm.WithWorkers(4),
		cilkm.WithAdaptiveMerge(),
	)
	mergeHeavyRun(t, s)
	mm := s.Engine().(*core.MM)
	batch, threshold, adaptive, retunes := mm.MergeTuning()
	s.Close()
	if !adaptive {
		t.Fatal("MergeTuning reports adaptive=false on an adaptive engine")
	}
	if retunes == 0 {
		t.Fatal("tuner never fired over a merge-heavy run")
	}
	if batch < 8 || batch > 512 {
		t.Errorf("batch size %d outside the [8,512] clamp", batch)
	}
	if threshold < 32 || threshold > 8192 {
		t.Errorf("parallel threshold %d outside the [32,8192] clamp", threshold)
	}

	// An explicit batch size is a fixed override the tuner must not touch.
	s2 := cilkm.New(
		cilkm.WithMechanism(cilkm.MemoryMapped),
		cilkm.WithWorkers(4),
		cilkm.WithAdaptiveMerge(),
		cilkm.WithMergeBatchSize(48),
	)
	mergeHeavyRun(t, s2)
	mm2 := s2.Engine().(*core.MM)
	batch2, _, _, retunes2 := mm2.MergeTuning()
	s2.Close()
	if batch2 != 48 {
		t.Errorf("explicit batch size changed to %d by the tuner", batch2)
	}
	if retunes2 == 0 {
		t.Error("tuner should still retune the non-fixed threshold knob")
	}
}
