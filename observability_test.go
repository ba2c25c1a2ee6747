package cilkm_test

import (
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	cilkm "repro"
	"repro/internal/core"
	"repro/internal/hypermap"
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
	// hypermerge elides every one of them — the elision-rate signal.  It is
	// an And: its identity (true) is not the zero value, so a read-only
	// first lookup creates a view (an Add's is served the zero block).
	watched := cilkm.NewAnd(s.Engine())
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
// run, and the headline signals (steals, elisions, arena hit rate) are nonzero.
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
		"cilkm_merge_adopts_total.mm":      ms.Adopts,
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
// engine, which counts and exports the merge pipeline exactly as the
// memory-mapped engine does (its arena and bulk-page series read 0).
func TestExporterMatchesStatsHypermap(t *testing.T) {
	exp := cilkm.NewExporter()
	s := cilkm.New(
		cilkm.WithMechanism(cilkm.Hypermap),
		cilkm.WithWorkers(4),
		cilkm.WithMetricsExporter(exp),
	)
	defer s.Close()
	mergeHeavyRun(t, s)
	if err := s.Quiescent(); err != nil {
		t.Fatal(err)
	}

	hm := s.Engine().(*hypermap.HM)
	ms := hm.MergeStats()
	m := exp.ExpvarMap()
	for name, want := range map[string]int64{
		"cilkm_merges_total.hypermap":            ms.Merges,
		"cilkm_merge_slots_total.hypermap":       ms.SlotsMerged,
		"cilkm_merge_reduces_total.hypermap":     ms.Reduces,
		"cilkm_merge_adopts_total.hypermap":      ms.Adopts,
		"cilkm_bulk_page_fetches_total.hypermap": ms.BulkPageFetches,
		"cilkm_bulk_page_returns_total.hypermap": ms.BulkPageReturns,
		"cilkm_stale_view_drops_total.hypermap":  ms.StaleViewDrops,
		"cilkm_identity_elisions_total.hypermap": ms.IdentityElisions,
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
	if ms.Merges <= 0 || ms.Reduces <= 0 {
		t.Errorf("MergeStats = %+v, want merges and reduces after a merge-heavy run", ms)
	}
	if got, want := int64(m["cilkm_lookups_total.hypermap"]), cilkm.LookupCount(hm); got != want || want == 0 {
		t.Errorf("cilkm_lookups_total.hypermap = %d, engine reports %d, want equal and nonzero", got, want)
	}
	if m["cilkm_sched_steals_total"] <= 0 {
		t.Error("cilkm_sched_steals_total = 0, want steals on a fork-heavy run")
	}
	if m["cilkm_directory_registers_total.hypermap"] <= 0 {
		t.Error("hypermap directory registrations missing from exporter")
	}
}
