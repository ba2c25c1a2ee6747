package sched

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// idleSample reads the idle policy's exported metrics.
func idleSample(rt *Runtime) (parkCostNS, warmPickups, warmExpiries, parks int64) {
	rt.SampleMetrics(func(m metrics.MetricSample) {
		switch m.Name {
		case "cilkm_sched_park_to_run_latency_ns":
			parkCostNS = int64(m.Value)
		case "cilkm_sched_warm_pickups_total":
			warmPickups = int64(m.Value)
		case "cilkm_sched_warm_expiries_total":
			warmExpiries = int64(m.Value)
		case "cilkm_sched_worker_parks_total":
			parks = int64(m.Value)
		}
	})
	return
}

// setParkCost overwrites every worker's estimate, so that a test can put
// the pool into the state a host with slow wake-ups would measure.  The
// owner's next sample folds into whatever it finds there.
func setParkCost(rt *Runtime, ns int64) {
	for _, w := range rt.workers {
		w.idle.parkCost.Store(ns)
	}
}

// waitAllParked spins until every worker is registered as parked and
// returns how long that took.
func waitAllParked(t *testing.T, rt *Runtime) time.Duration {
	t.Helper()
	return waitParked(t, rt, rt.Workers())
}

// waitParked spins until n workers are registered as parked and returns how
// long that took.
func waitParked(t *testing.T, rt *Runtime, n int) time.Duration {
	t.Helper()
	start := nanotime()
	for int(rt.parked.Load()) != n {
		if nanotime()-start > int64(10*time.Second) {
			t.Fatalf("workers never parked: %d of %d", rt.parked.Load(), n)
		}
		runtime.Gosched()
	}
	return time.Duration(nanotime() - start)
}

// submitWait submits fn and waits for it, as a client that blocks does.
func submitWait(s *Service, fn func(*Context)) error {
	h, err := s.Submit(context.Background(), JobSpec{Fn: fn})
	if err != nil {
		return err
	}
	return h.Wait()
}

// openLoopSubmit submits n empty jobs from the calling goroutine, which
// must be locked to its thread, gap apart and never waiting for one.  It
// returns each job's queue wait — the stamp taken before Submit to the first
// line of the job — and how many arrivals the submitter itself was more
// than a gap late for.
func openLoopSubmit(t *testing.T, s *Service, n int, gap time.Duration) (waits []int64, late int) {
	t.Helper()
	waits = make([]int64, n)
	var done sync.WaitGroup
	done.Add(n)
	next := nanotime()
	for i := range waits {
		now := nanotime()
		for now < next {
			now = nanotime()
		}
		if now-next > int64(gap) {
			late++
		}
		next += int64(gap)
		stamp := nanotime()
		_, err := s.Submit(context.Background(), JobSpec{
			Fn:     func(*Context) { waits[i] = nanotime() - stamp },
			OnDone: func(error) { done.Done() },
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	done.Wait()
	return waits, late
}

// spreadThreads keeps the calling thread and a worker busy until the OS has
// them on different CPUs, which the caller sees as 20 ms without losing its
// own for 100 µs.  A freshly woken worker thread starts on the CPU of the
// thread that woke it, and a small guest can take 200 ms to move it.
func spreadThreads(t *testing.T, s *Service) {
	t.Helper()
	var stop atomic.Bool
	h, err := s.Submit(context.Background(), JobSpec{Fn: func(*Context) {
		for !stop.Load() {
		}
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	start := nanotime()
	for quiet, last := start, start; last-quiet < 20_000_000 && last-start < 2_000_000_000; {
		now := nanotime()
		if now-last > 100_000 {
			quiet = now
		}
		last = now
	}
	stop.Store(true)
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestIdleWarmAcrossOpenLoopGaps is the case the policy exists for: a
// submitter that never blocks, so that the worker it readies waits for
// another thread to be woken.  After a warm-up that lets the estimate form,
// arrivals spaced well under the estimate must find the worker awake: the
// parks counter stays flat and the median queue wait is a sweep, not a
// wake-up.
func TestIdleWarmAcrossOpenLoopGaps(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("a submitter that does not block needs a second processor for the worker")
	}
	if raceEnabled {
		t.Skip("under the race detector a Submit takes longer than the gaps this test paces")
	}
	s := NewService(Config{Workers: 1}, ServiceConfig{Queue: 1 << 12})
	rt := s.Runtime()
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const n = 2000
	var failures []string
	// Up to ten attempts, with a pause after one that measured nothing:
	// `go test ./...` runs this package beside another one, and on a 2-CPU
	// box the root package's chaos sweeps can hold the submitter's CPU for
	// the length of three back-to-back attempts.
	for attempt := 1; attempt <= 10; attempt++ {
		spreadThreads(t, s)
		// Gaps longer than any warm phase: every pickup follows an unpark
		// and is a sample.
		openLoopSubmit(t, s, 64, 2*warmCapNS)
		est, _, _, _ := idleSample(rt)
		if est < warmSkipNS {
			t.Logf("this host runs a readied worker %d ns after the stamp: nothing to stay warm for", est)
		}
		gap := time.Duration(max(est/4, 2_000))
		waitAllParked(t, rt)
		_, pickups0, expiries0, parks0 := idleSample(rt)
		waits, late := openLoopSubmit(t, s, n, gap)
		est1, pickups, expiries, parks := idleSample(rt)
		parks -= parks0
		slices.Sort(waits)
		median := time.Duration(waits[n/2])
		t.Logf("estimate %d → %d ns, gap %v, submitter late for %d: queue wait median %v, p90 %v; %d parks, %d warm pickups, %d expiries",
			est, est1, gap, late, median, time.Duration(waits[n*9/10]), parks, pickups-pickups0, expiries-expiries0)
		if late > n/10 {
			// The submitter lost its CPU, most likely to the worker: what
			// was measured is the OS time-slicing the two.
			time.Sleep(300 * time.Millisecond)
			continue
		}
		// The worker can lose its CPU too, to another package's tests
		// running beside this one, so a reading counts as a failure only
		// when every attempt that measured something agrees.
		failures = failures[:0]
		if median > 10*time.Microsecond {
			failures = append(failures, fmt.Sprintf("median queue wait %v, want under 10µs", median))
		}
		// The first arrival finds the worker parked; after that only a
		// stalled submitter opens a gap long enough to park in.
		if est >= warmSkipNS && parks > n/50 {
			failures = append(failures, fmt.Sprintf("%d parks over %d arrivals %v apart with a %d ns estimate, want the worker to stay warm", parks, n, gap, est))
		}
		if len(failures) == 0 {
			return
		}
	}
	if len(failures) == 0 {
		t.Skip("the submitter's thread kept losing its CPU: nothing was measured")
	}
	for _, f := range failures {
		t.Error(f)
	}
}

// TestIdleParksWhenTrafficStops checks the other half of the bargain: with
// the longest warm phase the policy allows, every worker is parked within
// 1 ms of the last job, and Close still drains to a quiescent pool.
func TestIdleParksWhenTrafficStops(t *testing.T) {
	s := NewService(Config{Workers: 4}, ServiceConfig{})
	rt := s.Runtime()
	best := time.Duration(1 << 62)
	// The bound is on the runtime, not on this goroutine's luck with the OS
	// scheduler: the quickest of a few rounds has to meet it.
	for round := 0; round < 5 && best > time.Millisecond; round++ {
		waitAllParked(t, rt)
		setParkCost(rt, warmCapNS)
		for i := 0; i < 32; i++ {
			if err := submitWait(s, func(c *Context) {
				c.ParallelForGrain(0, 16, 1, func(*Context, int) {})
			}); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
		if err := submitWait(s, func(*Context) {}); err != nil {
			t.Fatalf("empty job: %v", err)
		}
		best = min(best, waitAllParked(t, rt))
	}
	if best > time.Millisecond {
		t.Errorf("workers took %v to park after the last job, want under 1ms", best)
	}
	if _, _, expiries, _ := idleSample(rt); expiries == 0 {
		t.Errorf("no warm phase expired: the test did not exercise the warm→park edge")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rt.Quiescent(); err != nil {
		t.Fatalf("not quiescent after Close: %v", err)
	}
}

// TestIdleClosedLoopNeverWarms checks that clients who block after Submit —
// who hand their P to the worker they readied — keep the estimate under the
// skip threshold, so that the policy changes nothing for them.  The
// estimate is read halfway through and at the end.
// The bounds are on measured wake-ups, which other packages' tests running
// beside this one can stretch, so a reading counts as a failure only when
// three fresh runtimes in a row agree.
func TestIdleClosedLoopNeverWarms(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector multiplies the cost of the hand-over this test bounds")
	}
	const n = 10_000
	var failures []string
	for attempt := 0; attempt < 3; attempt++ {
		s := NewService(Config{Workers: 2}, ServiceConfig{})
		rt := s.Runtime()
		for i := 0; i < n; i++ {
			if err := submitWait(s, func(*Context) {}); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
		estHalf, _, _, _ := idleSample(rt)
		for i := 0; i < n; i++ {
			if err := submitWait(s, func(*Context) {}); err != nil {
				t.Fatalf("job %d: %v", n+i, err)
			}
		}
		est, pickups, expiries, parks := idleSample(rt)
		t.Logf("estimate %d ns after %d Submit+Waits, %d ns after %d; %d parks, %d warm expiries", estHalf, n, est, 2*n, parks, expiries)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		failures = failures[:0]
		if estHalf >= warmSkipNS || est >= warmSkipNS {
			failures = append(failures, fmt.Sprintf("estimate %d ns halfway and %d ns at the end, want both under %d", estHalf, est, warmSkipNS))
		}
		// A burst of slow hand-overs — threads left over from earlier tests
		// steal the readied worker — can lift the estimate for a few dozen
		// parks; the blocking callers must bring it back down, and no more
		// than 1 % of their jobs may have met a warm phase.
		if pickups+expiries > 2*n/100 {
			failures = append(failures, fmt.Sprintf("%d warm pickups and %d warm expiries over %d jobs, want under 1 %%", pickups, expiries, 2*n))
		}
		if len(failures) == 0 {
			return
		}
	}
	for _, f := range failures {
		t.Error(f)
	}
}

// TestWakeProtocolUnderParkPerturbation runs the wake protocol's stress
// tests with the park failpoint armed, plus one that keeps every worker
// crossing the warm→park edge while open-loop and blocking submitters arrive
// at gaps around the length of the warm phase: a wakeup lost on that edge
// leaves a job queued for ever and the test times out.
func TestWakeProtocolUnderParkPerturbation(t *testing.T) {
	plan := faultinject.NewPlan(14).Arm(faultinject.SchedPark, faultinject.Rule{Prob: 0.5})
	defer faultinject.Activate(plan)()

	t.Run("warm-park-edge", func(t *testing.T) {
		s := NewService(Config{Workers: 3}, ServiceConfig{Queue: 1 << 12})
		rt := s.Runtime()
		const rounds, perRound = 40, 50
		var ran atomic.Int64
		for round := 0; round < rounds; round++ {
			var callers sync.WaitGroup
			for g := 0; g < 2; g++ {
				callers.Add(1)
				go func() {
					defer callers.Done()
					for i := 0; i < perRound; i++ {
						if err := submitWait(s, func(c *Context) {
							c.Fork(func(*Context) {}, func(*Context) {})
							ran.Add(1)
						}); err != nil {
							t.Errorf("blocking submitter: %v", err)
						}
						spinFor(int64(i%8) * 5_000)
					}
				}()
			}
			var jobs sync.WaitGroup
			jobs.Add(perRound)
			for i := 0; i < perRound; i++ {
				setParkCost(rt, 10_000) // 20 µs warm phases, whatever the callers' samples say
				if _, err := s.Submit(context.Background(), JobSpec{
					Fn:     func(*Context) { ran.Add(1) },
					OnDone: func(error) { jobs.Done() },
				}); err != nil {
					t.Fatalf("Submit: %v", err)
				}
				spinFor(int64((i+round)%8) * 5_000)
			}
			finished := make(chan struct{})
			go func() { callers.Wait(); jobs.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(30 * time.Second):
				t.Fatalf("round %d: lost wakeup: %d of %d ran", round, ran.Load(), (round+1)*3*perRound)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if plan.Fires(faultinject.SchedPark) == 0 {
			t.Errorf("the park failpoint never fired")
		}
	})
	t.Run("steal-storm", TestTraceNestingUnderStealStorm)
	t.Run("close-racing-run", TestCloseRacingRun)
	t.Run("close-racing-submit", TestServiceCloseRacingSubmit)
}

// spinFor busy-waits without yielding the processor, like a submitter that
// has work of its own between submissions.
func spinFor(ns int64) {
	for end := nanotime() + ns; nanotime() < end; {
	}
}
