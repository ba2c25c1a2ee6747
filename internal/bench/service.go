package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// DefaultServiceRates is the arrival-rate sweep (jobs per second) used when
// the caller does not pass explicit rates.  The low rate keeps the service
// mostly idle (latency ≈ job service time), the high rate pushes it past
// the queue bound so the reject path and tail latency under backpressure
// show up in the numbers.
var DefaultServiceRates = []int{200, 1000, 4000}

// ServiceLatencyRow is one (mechanism, arrival rate) leg of the open-loop
// service experiment.
type ServiceLatencyRow struct {
	Mechanism reducers.Mechanism
	Rate      int // target arrivals per second
	Jobs      int // arrivals attempted
	Completed int
	Rejected  int // AdmitReject refusals (open-loop losses)
	Failed    int // completed with a non-nil error (should be 0)
	// Latencies are measured from the job's scheduled open-loop arrival
	// instant to handle completion, so submitter scheduling lag and queue
	// wait are charged to the job, as an external client would see it.
	P50, P90, P99, Max time.Duration
	Elapsed            time.Duration
}

// ServiceLatencyResult is the full dataset of the service experiment.
type ServiceLatencyResult struct {
	Workers int
	Rows    []ServiceLatencyRow
}

// Table renders the result as a text table.
func (r *ServiceLatencyResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resident service, open-loop arrivals (%d workers; latency from scheduled arrival to completion)\n", r.Workers)
	fmt.Fprintf(&b, "%-14s %8s %6s %6s %6s %12s %12s %12s %12s\n",
		"mechanism", "rate/s", "jobs", "done", "rej", "p50", "p90", "p99", "max")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %8d %6d %6d %6d %12v %12v %12v %12v\n",
			row.Mechanism, row.Rate, row.Jobs, row.Completed, row.Rejected,
			row.P50.Round(time.Microsecond), row.P90.Round(time.Microsecond),
			row.P99.Round(time.Microsecond), row.Max.Round(time.Microsecond))
	}
	return b.String()
}

// BenchLines renders the result as `go test -bench`-style lines (one per
// row, percentiles attached as extra metrics) so the output can be piped
// through cmd/benchjson into the committed BENCH_pr*.json trajectory.
func (r *ServiceLatencyResult) BenchLines() string {
	var b strings.Builder
	for _, row := range r.Rows {
		if row.Completed == 0 {
			continue
		}
		fmt.Fprintf(&b, "BenchmarkServiceOpenLoop/%s/rate=%d-%d\t%8d\t%.0f ns/op\t%.0f p90-ns/op\t%.0f p99-ns/op\t%.0f max-ns/op\t%d rejected/run\n",
			row.Mechanism, row.Rate, runtime.GOMAXPROCS(0), row.Completed,
			float64(row.P50.Nanoseconds()), float64(row.P90.Nanoseconds()),
			float64(row.P99.Nanoseconds()), float64(row.Max.Nanoseconds()), row.Rejected)
	}
	return b.String()
}

// percentile returns the p-th percentile (0 < p <= 1) of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// RunServiceLatency measures request latency through the resident service
// under an open-loop arrival process: arrivals are scheduled on a fixed
// clock at each target rate regardless of completions, the signature of a
// serving workload (and the regime where queueing delay, not service time,
// dominates the tail).  Each arrival submits an independent fork-join job
// that registers its own reducer through a per-job session, mirroring how
// a multi-tenant deployment uses the service.  The admission policy is
// AdmitReject with the default queue bound, so overload shows up as
// counted rejections rather than as closed-loop throttling that would
// falsify the open-loop premise.
//
// rates is the arrival sweep in jobs/second; nil selects
// DefaultServiceRates.
func RunServiceLatency(cfg Config, rates []int) (*ServiceLatencyResult, error) {
	cfg = cfg.normalize()
	if len(rates) == 0 {
		rates = DefaultServiceRates
	}
	workers := cfg.MaxWorkers
	if n := runtime.GOMAXPROCS(0); workers > n {
		workers = n
	}
	jobs := 400
	leafSpin := 40
	if cfg.Quick {
		jobs = 60
		leafSpin = 10
	}
	res := &ServiceLatencyResult{Workers: workers}
	for _, mech := range reducers.Mechanisms() {
		for _, rate := range rates {
			row, err := runServiceLeg(mech, workers, rate, jobs, leafSpin)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

// runServiceLeg drives one open-loop leg: jobs arrivals at rate/s against a
// fresh service, returning the latency distribution.
func runServiceLeg(mech reducers.Mechanism, workers, rate, jobs, leafSpin int) (*ServiceLatencyRow, error) {
	eng := reducers.NewEngine(mech, workers, reducers.EngineOptions{})
	rt := sched.New(sched.Config{Workers: workers, Reducers: eng})
	svc := sched.NewService(rt, sched.ServiceConfig{
		Admit:     sched.AdmitReject,
		RootMerge: eng.MergeRootDeposit,
		Quiesce:   eng.Quiescent,
	})

	row := &ServiceLatencyRow{Mechanism: mech, Rate: rate, Jobs: jobs}
	tick := time.Second / time.Duration(rate)
	latencies := make([]time.Duration, jobs) // completion - scheduled arrival; 0 = not completed
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < jobs; i++ {
		arrival := start.Add(time.Duration(i) * tick)
		if d := time.Until(arrival); d > 0 {
			time.Sleep(d)
		}
		i := i
		js := core.NewJobSession(eng)
		h, err := svc.Submit(context.Background(), sched.JobSpec{
			Fn: func(c *sched.Context) {
				sum := reducers.NewAdd[int64](js)
				c.ParallelForGrain(0, 64, 4, func(c *sched.Context, k int) {
					x := uint64(k + 1)
					for s := 0; s < leafSpin; s++ {
						x = xorshift(x)
					}
					sum.Add(c, int64(x&1))
				})
			},
			OnDone: func(error) { js.Retire() },
		})
		if err != nil {
			js.Retire()
			row.Rejected++
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if werr := h.Wait(); werr != nil {
				failed.Add(1)
				return
			}
			latencies[i] = time.Since(arrival)
		}()
	}
	wg.Wait()
	row.Elapsed = time.Since(start)
	row.Failed = int(failed.Load())
	if err := svc.Close(); err != nil {
		return nil, fmt.Errorf("service drain after %s rate=%d: %w", mech, rate, err)
	}
	done := latencies[:0]
	for _, l := range latencies {
		if l > 0 {
			done = append(done, l)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	row.Completed = len(done)
	row.P50 = percentile(done, 0.50)
	row.P90 = percentile(done, 0.90)
	row.P99 = percentile(done, 0.99)
	row.Max = percentile(done, 1)
	if row.Completed+row.Rejected+row.Failed != jobs {
		return nil, fmt.Errorf("%s rate=%d: %d completed + %d rejected + %d failed != %d jobs",
			mech, rate, row.Completed, row.Rejected, row.Failed, jobs)
	}
	return row, nil
}
