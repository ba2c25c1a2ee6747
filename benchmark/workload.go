package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	cilkm "repro"
	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// params sizes one instance of a workload.  The six workloads run with
// workers = W on the memory-mapped engine; the per-layer probes rebuild
// them shortened with one worker or on the hypermap engine.
type params struct {
	workers  int
	mech     cilkm.Mechanism
	seed     uint64
	small    bool            // -smoke: about 1/100 of the full size
	exporter *cilkm.Exporter // attached to the session when non-nil
}

// options turns params into the runtime's functional options.
func (p params) options(extra ...cilkm.Option) []cilkm.Option {
	opts := []cilkm.Option{cilkm.WithMechanism(p.mech), cilkm.WithWorkers(p.workers)}
	if p.exporter != nil {
		opts = append(opts, cilkm.WithMetricsExporter(p.exporter))
	}
	return append(opts, extra...)
}

// rng returns the workload's input generator; stream separates the
// independent inputs drawn from one seed.
func (p params) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(p.seed, stream))
}

// pick returns full, or small under -smoke.
func (p params) pick(full, small int) int {
	if p.small {
		return small
	}
	return full
}

// record accumulates what the repeats of one workload did.
type record struct {
	ops       int64   // verified ops completed
	attempted int64   // ops attempted
	failed    int64   // refused, errored or wrong-result ops
	busy      int64   // ns inside the timed window
	lat       []int64 // ns, one per individually timed unit
	lag       []int64 // ns the open-loop generator ran late, one per arrival
	slow      int64   // open-loop jobs past the latency limit
	first     string  // the first failure seen
	tr        *tracer // nil unless this repeat is traced
}

// fail counts n failed ops and keeps the first failure's description.
func (r *record) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if r.first == "" {
		r.first = fmt.Sprintf(format, args...)
	}
}

// instance is one built workload: the runtime under test plus the client
// loop that drives it.
type instance interface {
	// warm runs the fixed-size warm-up repeat that ends set-up.
	warm(r *record)
	// repeat drives load for about d and accumulates into r.
	repeat(d time.Duration, r *record)
	// finish checks the workload's totals, shuts the runtime down and
	// returns every error found, leak checks included.
	finish() []error
	// counters snapshots the runtime's exported statistics.
	counters() counters
}

// workloadDef names a workload; BENCHMARK.json carries the same names.
type workloadDef struct {
	name       string
	op         string // what one op is
	unit       string // the individually timed unit behind latency_*
	clockPaced bool   // load arrives on a schedule, not as fast as the cores allow
	build      func(p params) instance
}

var workloadDefs = []workloadDef{
	{"update_hot", "reducer update", "block of 65536 updates", false, func(p params) instance { return newUpdate(p, false) }},
	{"update_probe", "reducer update", "block of 65536 updates", false, func(p params) instance { return newUpdate(p, true) }},
	{"trace_cycle", "Session.Run", "one Run", false, newCycle},
	{"service_closed", "job", "one job, Submit call to Wait return", false, func(p params) instance { return newService(p, false, openRate) }},
	{"service_open", "job", "one job, due time to OnDone", true, func(p params) instance { return newService(p, true, openRate) }},
	{"pbfs_grid", "traversed edge", "one BFS", false, newPBFS},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// counters is the subset of the runtime's exported statistics the
// per-layer metrics are computed from, as one flat snapshot.
type counters [nCounters]int64

const (
	cViewsCreated = iota
	cReduces
	cElisions
	cStaleDrops
	cArenaAllocs
	cArenaFreeHits
	cHeapViews
	cPoolRoundTrips
	cFastHits
	cFastMisses
	cDirRegisters
	cDirRecycles
	cForks
	cSteals
	cFailedSteals
	cStalledJoins
	cMergeTasks
	cRootTasks
	cAdmitted
	cRejected
	nCounters
)

// sub returns a − b, the activity between two snapshots.
func (a counters) sub(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// snapshot reads every statistic from outside, through the exported
// *Stats() methods; svc may be nil.
func snapshot(eng cilkm.Engine, rt *sched.Runtime, svc *cilkm.Service) counters {
	var c counters
	c[cViewsCreated] = eng.Overheads().Count(metrics.ViewCreation)
	switch e := eng.(type) {
	case *core.MM:
		ms, ar, fp, dir := e.MergeStats(), e.ArenaStats(), e.FastPathStats(), e.DirectoryStats()
		c[cReduces], c[cElisions], c[cStaleDrops] = ms.Reduces, ms.IdentityElisions, ms.StaleViewDrops
		c[cArenaAllocs], c[cArenaFreeHits], c[cHeapViews] = ar.Allocs, ar.FreeHits, ar.HeapViews
		c[cPoolRoundTrips] = e.PoolStats().RoundTrips()
		c[cFastHits], c[cFastMisses] = fp.Hits, fp.Misses
		c[cDirRegisters], c[cDirRecycles] = dir.Registers, dir.Recycles
	case *hypermap.HM:
		fp, dir := e.FastPathStats(), e.DirectoryStats()
		c[cElisions] = e.IdentityElisions()
		c[cFastHits], c[cFastMisses] = fp.Hits, fp.Misses
		c[cDirRegisters], c[cDirRecycles] = dir.Registers, dir.Recycles
	}
	st := rt.Stats()
	c[cForks], c[cSteals], c[cFailedSteals] = st.Forks, st.Steals, st.FailedSteals
	c[cStalledJoins], c[cMergeTasks], c[cRootTasks] = st.StalledJoins, st.MergeTasks, st.RootTasks
	if svc != nil {
		ss := svc.Stats()
		c[cAdmitted], c[cRejected] = ss.Admitted, ss.Rejected
	}
	return c
}

// counterMetrics turns the activity d around ops ops into the per-op and
// ratio metrics of the core and sched layers.
func counterMetrics(d counters, ops int64) map[string]float64 {
	f := func(i int) float64 { return float64(d[i]) }
	n := float64(ops)
	return map[string]float64{
		"core.views_created_per_op":    ratio(f(cViewsCreated), n),
		"core.reduces_per_op":          ratio(f(cReduces), n),
		"core.elision_ratio":           ratio(f(cElisions), f(cViewsCreated)),
		"core.arena_reuse_ratio":       ratio(f(cArenaFreeHits), f(cArenaAllocs)),
		"core.heap_views_per_op":       ratio(f(cHeapViews), n),
		"core.pool_roundtrips_per_op":  ratio(f(cPoolRoundTrips), n),
		"core.fastpath_hit_ratio":      ratio(f(cFastHits), f(cFastHits)+f(cFastMisses)),
		"core.engine_visits_per_op":    ratio(f(cFastHits)+f(cFastMisses), n),
		"core.dir_recycle_ratio":       ratio(f(cDirRecycles), f(cDirRegisters)),
		"core.stale_view_drops_per_op": ratio(f(cStaleDrops), n),
		"sched.steals_per_op":          ratio(f(cSteals), n),
		"sched.steal_success_ratio":    ratio(f(cSteals), f(cSteals)+f(cFailedSteals)),
		"sched.stalled_joins_per_op":   ratio(f(cStalledJoins), n),
		"sched.forks_per_op":           ratio(f(cForks), n),
		"sched.merge_tasks_per_op":     ratio(f(cMergeTasks), n),
		"sched.rejected_ratio":         ratio(f(cRejected), f(cRejected)+f(cAdmitted)),
	}
}
