package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// plan sizes one run of the benchmark.
type plan struct {
	p       params
	seconds float64 // measured time per workload
	setups  int     // set-ups per run; setup_s is their median
}

// result is what one workload's run reports.  EndToEnd holds the seven
// end-to-end metrics; a nil value means the percentile rule (or the
// workload) does not allow reporting it.
type result struct {
	Workload  string              `json:"workload"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	First     string              `json:"first_failure,omitempty"`
	Invalid   string              `json:"invalid,omitempty"` // why the numbers cannot carry a claim
	EndToEnd  map[string]*float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64  `json:"per_layer,omitempty"`
	Detail    detail              `json:"detail"`
}

// detail is the evidence behind the headline numbers.
type detail struct {
	Op              string             `json:"op"`
	Unit            string             `json:"latency_unit"`
	Samples         int                `json:"latency_samples"`
	TailQuantile    float64            `json:"latency_tail_quantile"`
	Quantiles       map[string]float64 `json:"latency_quantiles_us,omitempty"`
	SetupS          []float64          `json:"setup_s,omitempty"`       // each ÷ SetupSlowdown
	RepeatOpsPerS   []float64          `json:"repeat_ops_s"`            // each × HostSlowdown, unless clock-paced
	RepeatSpread    float64            `json:"repeat_spread_ratio"`     // of RepeatOpsPerS
	RepeatP50Spread float64            `json:"repeat_p50_spread_ratio"` // of RepeatP50NS
	RepeatP50NS     []float64          `json:"repeat_p50_ns,omitempty"` // each ÷ HostSlowdown, unless clock-paced
	HostSlowdown    []float64          `json:"host_slowdown,omitempty"` // reference loop before each repeat ÷ referenceNS
	SetupSlowdown   []float64          `json:"setup_host_slowdown,omitempty"`
	RawThroughput   float64            `json:"raw_throughput_ops_s,omitempty"` // median over repeats, as timed
	RawLatencyP50US float64            `json:"raw_latency_p50_us,omitempty"`   // pooled median, as timed
	RawSetupS       float64            `json:"raw_setup_s,omitempty"`          // median over set-ups, as timed
	GenLagP50US     float64            `json:"gen_lag_p50_us,omitempty"`
	GenLagP90US     float64            `json:"gen_lag_p90_us,omitempty"`
	GenLagP99US     float64            `json:"gen_lag_p99_us,omitempty"`
	GenLagLimitUS   float64            `json:"gen_lag_limit_us,omitempty"`
	SLOMissRatio    float64            `json:"slo_miss_ratio,omitempty"`
	TimedWindowS    float64            `json:"timed_window_s"`
	TracedOpsPerS   float64            `json:"traced_ops_s,omitempty"`
	SpanFile        string             `json:"span_file,omitempty"`
	WorkloadWorkers int                `json:"workers"`
}

// An untraced run is cut into many short repeats, each with the host's
// slowdown measured right before it (hostspeed.go), and reports the median
// of their corrected throughputs.  The sizing box changes speed for one to
// four seconds at a time (a plain loop on it reads 1.0 to 1.8 G updates/s):
// a short repeat mostly sees one speed, the one the reference loop just saw,
// where a long one would average over speeds the loop did not sample.
const (
	repeatSeconds = 0.2
	minRepeats    = 5
)

// quietRepeats picks the open loop's latency_p50_us: that quantile, over the
// repeats, of each repeat's own median latency.  An open loop charges every
// freeze of the box to all the arrivals queued behind it, so its pooled
// median follows the host and not the runtime: over forty identical runs on
// the sizing box it read 109 to 996 µs (interquartile range 39 % of the
// median) where this quantile read 87 to 129 µs (9 %).  The box only ever
// adds latency, so the quiet repeats are the ones that measured the runtime.
// The other workloads slow down with the box instead of queueing behind it,
// which the reference loop corrects for (see endToEnd).
const quietRepeats = 0.05

// repeatStat is what one untraced repeat measured.
type repeatStat struct {
	rate float64 // ops/s, as timed
	p50  float64 // ns, as timed: the median of the units the repeat timed; 0 when it timed none
	slow float64 // hostSlowdown right before the repeat; 1 when it was not measured
}

// setupStat is one set-up: how long it took, as timed, and hostSlowdown
// right before it.
type setupStat struct{ seconds, slow float64 }

// tally is the sum of a workload's repeats.
type tally struct {
	rec        record
	reps       []repeatStat // the untraced repeats
	ops        int64        // completed by the untraced repeats
	mallocs    uint64
	allocBytes uint64
}

// rates returns the untraced repeats' throughputs, as timed.
func (t *tally) rates() []float64 {
	out := make([]float64, len(t.reps))
	for i, r := range t.reps {
		out[i] = r.rate
	}
	return out
}

// timedRepeat runs one repeat of d with a collection before it and the
// allocation counters read around it, and folds it into t.  slow is the
// host's slowdown measured right before the call, 1 when the caller did not
// measure it; the rate returned is as timed.
func (t *tally) timedRepeat(inst instance, d time.Duration, tr *tracer, slow float64) (rate float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	r := record{lat: t.rec.lat, lag: t.rec.lag, tr: tr}
	runtime.ReadMemStats(&m0)
	inst.repeat(d, &r)
	runtime.ReadMemStats(&m1)
	rate = ratio(float64(r.ops), float64(r.busy)/1e9)
	if tr == nil {
		rep := repeatStat{rate: rate, slow: slow}
		if own := slices.Clone(r.lat[len(t.rec.lat):]); len(own) > 0 {
			slices.Sort(own)
			p50, _ := percentile(own, 0.5)
			rep.p50 = float64(p50)
		}
		t.reps = append(t.reps, rep)
		t.ops += r.ops
		t.mallocs += m1.Mallocs - m0.Mallocs
		t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	t.rec.lat, t.rec.lag = r.lat, r.lag
	t.rec.ops += r.ops
	t.rec.attempted += r.attempted
	t.rec.busy += r.busy
	t.rec.slow += r.slow
	t.rec.fail(r.failed, "%s", r.first)
	return rate
}

// setUp builds the workload and runs its warm-up repeat, whose failures
// count like any other, and returns the instance and the seconds it took.
func (t *tally) setUp(def workloadDef, p params) (instance, float64) {
	var warm record
	t0 := now()
	inst := def.build(p)
	inst.warm(&warm)
	took := float64(now()-t0) / 1e9
	t.rec.attempted += warm.attempted
	t.rec.fail(warm.failed, "warm-up: %s", warm.first)
	return inst, took
}

// settle folds the errors of an instance's finish into t: each is one
// failed op, as a wrong total or a leak fails the run.
func (t *tally) settle(errs []error) {
	for _, err := range errs {
		t.rec.attempted++
		t.rec.fail(1, "%v", err)
	}
}

// endToEnd computes the seven end-to-end metrics from the untraced repeats
// and the set-ups, each of which carries the host's slowdown measured right
// before it.  A host-bound workload reports, for throughput and for the
// median latency, the median over its repeats of the repeat's own number
// corrected by that slowdown, and so does set-up time on every workload.  A
// clock-paced one (the open loop) is not slowed down by the host but queues
// behind its freezes: its throughput is the median as timed and its latency
// that of its quiet repeats.  The tail latency is never corrected: a tail is
// made of the host's freezes, which the reference loop does not predict.
func (t *tally) endToEnd(res *result, setups []setupStat, clockPaced bool) {
	rec := &t.rec
	slices.Sort(rec.lat)
	d := &res.Detail
	d.Samples = len(rec.lat)
	us := func(ns int64, ok bool) *float64 {
		if !ok {
			return nil
		}
		v := float64(ns) / 1e3
		return &v
	}
	p50, ok50 := percentile(rec.lat, 0.50)
	p99, q, ok99 := tail(rec.lat, 0.99)
	d.TailQuantile = q
	d.Quantiles = make(map[string]float64)
	for _, qq := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
		if v, ok := percentile(rec.lat, qq); ok {
			d.Quantiles[fmt.Sprintf("p%g", 100*qq)] = float64(v) / 1e3
		}
	}

	for _, r := range t.reps {
		slow := r.slow
		if clockPaced {
			slow = 1
		}
		d.HostSlowdown = append(d.HostSlowdown, r.slow)
		d.RepeatOpsPerS = append(d.RepeatOpsPerS, r.rate*slow)
		if r.p50 > 0 {
			d.RepeatP50NS = append(d.RepeatP50NS, r.p50/slow)
		}
	}
	var rawSetups []float64
	for _, r := range setups {
		d.SetupSlowdown = append(d.SetupSlowdown, r.slow)
		d.SetupS = append(d.SetupS, r.seconds/r.slow)
		rawSetups = append(rawSetups, r.seconds)
	}
	d.RawThroughput, d.RawLatencyP50US, d.RawSetupS = median(t.rates()), float64(p50)/1e3, median(rawSetups)
	d.RepeatSpread, d.RepeatP50Spread = spreadRatio(d.RepeatOpsPerS), spreadRatio(d.RepeatP50NS)
	d.TimedWindowS = float64(rec.busy) / 1e9

	val := func(v float64) *float64 { return &v }
	var lat50 *float64
	switch {
	case !ok50 || len(d.RepeatP50NS) == 0:
	case clockPaced:
		lat50 = val(quantile(d.RepeatP50NS, quietRepeats) / 1e3)
	default:
		lat50 = val(median(d.RepeatP50NS) / 1e3)
	}
	ops := float64(t.ops)
	res.EndToEnd = map[string]*float64{
		"setup_s":            val(median(d.SetupS)),
		"throughput_ops_s":   val(median(d.RepeatOpsPerS)),
		"latency_p50_us":     lat50,
		"latency_p99_us":     us(p99, ok99),
		"fail_ratio":         val(ratio(float64(rec.failed), float64(rec.attempted))),
		"allocs_per_op":      val(ratio(float64(t.mallocs), ops)),
		"alloc_bytes_per_op": val(ratio(float64(t.allocBytes), ops)),
	}
}

// lagStats summarises how late the open-loop generator ran and applies the
// validity rule: the median arrival must leave within a tenth of the mean
// inter-arrival gap of its due time, or the generator was saturated and the
// loop was not open.  The rule reads the median, not p99.  One generator
// thread cannot submit the next arrival before Submit has returned from the
// last, and a Submit that wakes a parked worker takes about 10 µs here, so
// p90 is the runtime's own wake path; and the sizing box freezes every
// thread for 50 µs to 4 ms about ninety times a second (a bare spin loop on
// a locked thread sees it), which alone puts p99 in the hundreds of µs.
// Both are charged to the jobs they delay, from their due times, and both
// percentiles are reported.
func lagStats(d *detail, rec *record, rate float64) (invalid string) {
	if len(rec.lag) == 0 {
		return ""
	}
	lag := slices.Clone(rec.lag)
	slices.Sort(lag)
	p50, _ := percentile(lag, 0.50)
	p90, _, _ := tail(lag, 0.90)
	p99, _, _ := tail(lag, 0.99)
	d.GenLagP50US, d.GenLagP90US, d.GenLagP99US = float64(p50)/1e3, float64(p90)/1e3, float64(p99)/1e3
	d.GenLagLimitUS = 0.1 * 1e6 / rate
	d.SLOMissRatio = ratio(float64(rec.slow), float64(len(rec.lag)))
	if d.GenLagP50US > d.GenLagLimitUS {
		return fmt.Sprintf("generator lag p50 %.1f µs exceeds %.1f µs, a tenth of the mean inter-arrival gap", d.GenLagP50US, d.GenLagLimitUS)
	}
	return ""
}

func (t *tally) verdict(res *result) {
	res.Attempted, res.Failed, res.First = t.rec.attempted, t.rec.failed, t.rec.first
	res.Correct = res.Failed == 0 && res.Attempted > 0
}

// runUntraced measures one workload end to end, tracing off.
func runUntraced(def workloadDef, pl plan) result {
	res := result{Workload: def.name, Detail: detail{Op: def.op, Unit: def.unit, WorkloadWorkers: pl.p.workers}}
	var t tally
	var inst instance
	var setups []setupStat
	for k := 0; k < pl.setups; k++ {
		if inst != nil {
			t.settle(inst.finish())
			runtime.GC()
		}
		st := setupStat{slow: hostSlowdown(pl.p.workers)}
		inst, st.seconds = t.setUp(def, pl.p)
		setups = append(setups, st)
	}
	repeats := max(minRepeats, int(pl.seconds/repeatSeconds))
	d := time.Duration(pl.seconds / float64(repeats) * float64(time.Second))
	for i := 0; i < repeats; i++ {
		t.timedRepeat(inst, d, nil, hostSlowdown(pl.p.workers))
	}
	t.settle(inst.finish())
	t.endToEnd(&res, setups, def.clockPaced)
	res.Invalid = lagStats(&res.Detail, &t.rec, openRate) // only the open loop records lag
	t.verdict(&res)
	return res
}

// tracedShare is the share of -seconds each of the traced run's five
// workload repeats takes; the probes get the rest.
const tracedShare = 0.06

// runTraced reruns one workload shortened — four untraced repeats, then
// one with spans recorded — and reports the per-layer metrics that depend
// on the workload: counter deltas, tracing overhead, and the end-to-end
// metrics that carry no bound.
func runTraced(def workloadDef, pl plan) result {
	res := result{Workload: def.name, Detail: detail{Op: def.op, Unit: def.unit, WorkloadWorkers: pl.p.workers}}
	var t tally
	inst, _ := t.setUp(def, pl.p)
	d := time.Duration(pl.seconds * tracedShare * float64(time.Second))
	var slows []float64
	for i := 0; i < 4; i++ {
		slows = append(slows, hostSlowdown(pl.p.workers))
		t.timedRepeat(inst, d, nil, 1)
	}
	untracedLat := slices.Clone(t.rec.lat)
	slices.Sort(untracedLat)
	p99, _, ok := tail(untracedLat, 0.99)
	if !ok && len(untracedLat) > 0 {
		// A dozen searches carry no percentile; their slowest is the honest tail.
		p99 = untracedLat[len(untracedLat)-1]
	}
	tr := &tracer{}
	before, opsBefore := inst.counters(), t.rec.ops
	tracedRate := t.timedRepeat(inst, d, tr, 1)
	m := counterMetrics(inst.counters().sub(before), t.rec.ops-opsBefore)
	t.settle(inst.finish())
	res.Invalid = lagStats(&res.Detail, &t.rec, openRate) // only the open loop records lag

	m["harness.trace_overhead_ratio"] = ratio(tracedRate, median(t.rates()))
	m["harness.repeat_spread_ratio"] = spreadRatio(t.rates())
	m["harness.host_slowdown_ratio"] = median(slows)
	m["latency_p99_us"] = float64(p99) / 1e3
	m["allocs_per_op"] = ratio(float64(t.mallocs), float64(t.ops))
	m["alloc_bytes_per_op"] = ratio(float64(t.allocBytes), float64(t.ops))
	m["fail_ratio"] = ratio(float64(t.rec.failed), float64(t.rec.attempted))
	res.PerLayer = m
	res.Detail.RepeatOpsPerS = t.rates()
	res.Detail.RepeatSpread = spreadRatio(t.rates())
	res.Detail.TracedOpsPerS = tracedRate
	res.Detail.TimedWindowS = float64(t.rec.busy) / 1e9
	if path, err := writeTrace(def.name, tr.spans); err != nil {
		t.settle([]error{err})
	} else {
		res.Detail.SpanFile = path
	}
	t.verdict(&res)
	return res
}

// jobSpanMetrics reports where a job's time goes, from the spans the
// client side recorded per job id.
func jobSpanMetrics(m map[string]float64, spans []span) {
	us := func(name string, p float64) float64 {
		v, _, _ := tail(durations(spans, name), p)
		return float64(v) / 1e3
	}
	m["sched.submit_us_p50"] = us("Submit", 0.5)
	m["sched.queue_wait_us_p50"] = us("queue_wait", 0.5)
	m["sched.queue_wait_us_p99"] = us("queue_wait", 0.99)
	m["sched.run_us_p50"] = us("job_body", 0.5)
	m["sched.settle_us_p50"] = us("settle", 0.5)
}
