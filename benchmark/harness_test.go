package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 990, false}, // 9 beyond
		{21, 0.50, 11, true},    // 10 beyond
		{20, 0.50, 10, true},    // 10 beyond
		{19, 0.50, 10, false},   // 9 beyond
		{0, 0.50, 0, false},     // nothing to report
		{100000, 0.99, 99000, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %d, %v; want %d, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestTailFallsBackToHighestReportableQuantile(t *testing.T) {
	if v, q, ok := tail(seq(2000), 0.99); v != 1980 || q != 0.99 || !ok {
		t.Errorf("tail(1..2000, .99) = %d, %v, %v; want the p99 itself", v, q, ok)
	}
	// 50 samples cannot carry a p99: the highest value with ten beyond it
	// is the 40th, the 0.8 quantile.
	if v, q, ok := tail(seq(50), 0.99); v != 40 || q != 0.8 || !ok {
		t.Errorf("tail(1..50, .99) = %d, %v, %v; want 40, 0.8, true", v, q, ok)
	}
	if _, _, ok := tail(seq(15), 0.99); ok {
		t.Error("tail of 15 samples reported a value: not even the median has ten samples beyond it")
	}
}

func TestSpanSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	tr := &tracer{}
	root := tr.add("job", 100, 200, -1, 7)
	tr.add("Submit", 100, 120, root, 7)      // covers 20
	tr.add("body", 110, 150, root, 7)        // overlaps Submit: adds 120..150 = 30
	tr.add("settle", 190, 230, root, 7)      // clipped to the parent: 10
	inner := tr.add("inner", 130, 140, 2, 7) // grandchild: no effect on root
	computeSelf(tr.spans)
	if got := tr.spans[root].Self; got != 100-20-30-10 {
		t.Errorf("root self time = %d, want 40", got)
	}
	if got := tr.spans[2].Self; got != 40-10 {
		t.Errorf("body self time = %d, want 30", got)
	}
	if got := tr.spans[inner].Self; got != 10 {
		t.Errorf("leaf self time = %d, want its duration 10", got)
	}
	var nilTracer *tracer
	if nilTracer.add("x", 0, 1, -1, 0) != -1 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestPoissonScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(42, 3, openRate, time.Second)
	b := poissonSchedule(42, 3, openRate, time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("same seed and stream gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(43, 3, openRate, time.Second)) {
		t.Error("another seed gave the same schedule")
	}
	if slices.Equal(a, poissonSchedule(42, 4, openRate, time.Second)) {
		t.Error("another stream gave the same schedule")
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= int64(time.Second) {
		t.Error("due times must increase and stay inside the window")
	}
	// 15 000 expected arrivals, standard deviation 122.
	if n := len(a); n < 14400 || n > 15600 {
		t.Errorf("%d arrivals in one second at %v/s", n, openRate)
	}
}

// A generator stall must not move the due times of the arrivals behind
// it: they leave late, and their latency counts from when they were due.
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	var clock int64
	due := []int64{100, 200, 300, 400}
	const service, stall = 10, 500
	stamps := openLoop(1000, due, func() int64 { clock++; return clock }, func(st *jobStamps) {
		if st.due == 1000+200 {
			clock += stall // the second Submit blocks the generator
		}
		st.done = clock + service
	})
	for i, st := range stamps {
		if st.due != 1000+due[i] {
			t.Errorf("arrival %d: due %d, want %d", i, st.due, 1000+due[i])
		}
		if st.submit0 < st.due {
			t.Errorf("arrival %d left at %d, before it was due at %d", i, st.submit0, st.due)
		}
	}
	if lat := stamps[0].latency(true); lat > service+2 {
		t.Errorf("arrival before the stall: latency %d, want about %d", lat, service)
	}
	// Arrival 2 was due at 1300 but the generator was stuck until ~1700.
	if lat, want := stamps[2].latency(true), int64(1200+stall+service-1300); lat < want {
		t.Errorf("arrival behind the stall: latency %d, want at least %d (counted from its due time)", lat, want)
	}
	if sinceSubmit := stamps[2].done - stamps[2].submit0; sinceSubmit > service+2 {
		t.Errorf("the stalled arrival's own service took %d; the test's premise is broken", sinceSubmit)
	}
	if lat := stamps[2].latency(false); lat != stamps[2].done-stamps[2].submit0 {
		t.Errorf("closed-loop latency = %d, want it counted from the Submit call", lat)
	}
}

func TestWorkerCountIsCappedByQuota(t *testing.T) {
	for _, c := range []struct {
		cpus  int
		quota float64
		want  int
	}{{2, 0, 2}, {16, 0, 4}, {16, 2.5, 2}, {8, 0.5, 1}, {1, 8, 1}} {
		if got := workerCount(c.cpus, c.quota); got != c.want {
			t.Errorf("workerCount(%d, %v) = %d, want %d", c.cpus, c.quota, got, c.want)
		}
	}
	dir := t.TempDir()
	if raw, q := cgroupCPUMax(dir); raw != "" || q != 0 {
		t.Errorf("no cgroup files: got %q, %v", raw, q)
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.max"), []byte("150000 100000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if raw, q := cgroupCPUMax(dir); raw != "150000 100000" || q != 1.5 {
		t.Errorf("cpu.max 150000 100000: got %q, %v", raw, q)
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.max"), []byte("max 100000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if raw, q := cgroupCPUMax(dir); raw != "max 100000" || q != 0 {
		t.Errorf("cpu.max max: got %q, %v", raw, q)
	}
}

func TestJudge(t *testing.T) {
	val := func(v float64) *float64 { return &v }
	mk := func(thr, allocs, spread float64) result {
		return result{
			EndToEnd: map[string]*float64{"throughput_ops_s": val(thr), "allocs_per_op": val(allocs), "fail_ratio": val(0), "latency_p50_us": nil, "latency_p99_us": val(thr)},
			Detail:   detail{RepeatSpread: spread},
		}
	}
	def := func(name string) metricDef {
		for _, d := range endToEndDefs {
			if d.name == name {
				return d
			}
		}
		t.Fatalf("no metric %s", name)
		return metricDef{}
	}
	cases := []struct {
		name    string
		metric  string
		a, b    result
		verdict string
	}{
		{"within the bound", "throughput_ops_s", mk(100, 0, 0.01), mk(95, 0, 0.01), "ok"},
		{"better", "throughput_ops_s", mk(100, 0, 0.01), mk(150, 0, 0.01), "ok"},
		{"past the bound", "throughput_ops_s", mk(100, 0, 0.01), mk(70, 0, 0.01), "BREACH"},
		{"past the bound, noisy repeats", "throughput_ops_s", mk(100, 0, 0.30), mk(70, 0, 0.01), "unresolved (repeat spread wider than the bound)"},
		{"demoted: follows the steal count", "allocs_per_op", mk(100, 10, 0), mk(100, 12, 0), "not bounded"},
		{"zero stays zero", "fail_ratio", mk(100, 0, 0), mk(100, 0, 0), "not bounded"},
		{"not reportable", "latency_p50_us", mk(100, 0, 0), mk(100, 0, 0), "n/a"},
		{"demoted", "latency_p99_us", mk(100, 0, 0), mk(100, 0, 0), "not bounded"},
	}
	for _, c := range cases {
		if _, got := judge(def(c.metric), c.a, c.b); got != c.verdict {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.verdict)
		}
	}
	failing := mk(100, 0, 0)
	failing.EndToEnd["fail_ratio"] = val(1e-9)
	if _, got := judge(def("fail_ratio"), mk(100, 0, 0), failing); got != "BREACH" {
		t.Errorf("any increase of fail_ratio must breach, got %q", got)
	}
}

// A service_open run whose generator was saturated measured a loop that
// was not open: the run must fail, however correct its outputs were.
func TestInvalidRunExitsNonZero(t *testing.T) {
	val := func(v float64) *float64 { return &v }
	res := result{
		Workload: "service_open", Correct: true, Attempted: 100,
		EndToEnd: map[string]*float64{"setup_s": val(0.1), "throughput_ops_s": val(15000), "latency_p50_us": val(120)},
	}
	var stdout, stderr bytes.Buffer
	if code := finish(report{Results: []result{res}}, nil, 0, &stdout, &stderr); code != 0 {
		t.Fatalf("a valid run exited %d: %s", code, stderr.String())
	}
	res.Invalid = "generator lag p50 18.0 µs exceeds 6.7 µs"
	if code := finish(report{Results: []result{res}}, nil, 0, &stdout, &stderr); code == 0 {
		t.Error("an invalid run exited 0")
	}
	if !strings.Contains(stderr.String(), "INVALID service_open") {
		t.Errorf("stderr does not name the invalid run: %q", stderr.String())
	}
}

// The open loop reports the median latency of its quiet repeats, as timed,
// so that a box that freezes during most of a run does not set the number;
// every other workload reports the median over its repeats, each corrected
// by the host's slowdown right before it.
func TestOpenLoopLatencyComesFromTheQuietRepeats(t *testing.T) {
	var ta tally
	for i := 0; i < 100; i++ {
		p50 := 900e3 // a disturbed repeat
		if i%10 == 0 {
			p50 = 100e3 + float64(i) // one repeat in ten was quiet
		}
		ta.reps = append(ta.reps, repeatStat{rate: openRate, p50: p50, slow: 1.5})
		for k := 0; k < 30; k++ {
			ta.rec.lat = append(ta.rec.lat, int64(p50))
		}
	}
	setups := []setupStat{{seconds: 1, slow: 1}}
	var closed, open result
	ta.endToEnd(&closed, setups, false)
	if got := *closed.EndToEnd["latency_p50_us"]; got != 600 {
		t.Errorf("closed loop: latency_p50_us = %v, want the corrected median 900/1.5", got)
	}
	ta.endToEnd(&open, setups, true)
	if got := *open.EndToEnd["latency_p50_us"]; got < 100 || got > 100.1 {
		t.Errorf("open loop: latency_p50_us = %v, want a quiet repeat's median as timed, about 100", got)
	}
	if got := *open.EndToEnd["throughput_ops_s"]; got != openRate {
		t.Errorf("open loop: throughput_ops_s = %v, want the rate as timed", got)
	}
}

// A host that runs at half speed for half of a run's repeats, and during
// two of its three set-ups, must not move the numbers of a host-bound
// workload: each repeat is corrected by the slowdown measured before it.
func TestHostSlowdownIsCorrectedPerRepeat(t *testing.T) {
	var ta tally
	for i := 0; i < 40; i++ {
		slow := 1.0
		if i >= 20 {
			slow = 2
		}
		ta.reps = append(ta.reps, repeatStat{rate: 1e6 / slow, p50: 50e3 * slow, slow: slow})
		for k := 0; k < 30; k++ {
			ta.rec.lat = append(ta.rec.lat, int64(50e3*slow))
		}
	}
	var res result
	ta.endToEnd(&res, []setupStat{{0.2, 1}, {0.4, 2}, {0.4, 2}}, false)
	for name, want := range map[string]float64{"throughput_ops_s": 1e6, "latency_p50_us": 50, "setup_s": 0.2} {
		if got := *res.EndToEnd[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if d := res.Detail; d.RawSetupS != 0.4 || d.RawThroughput != 0.75e6 || d.RepeatSpread != 0 {
		t.Errorf("as timed: set-up %v s, %v ops/s, corrected repeat spread %v; want 0.4, 750000, 0", d.RawSetupS, d.RawThroughput, d.RepeatSpread)
	}
}
