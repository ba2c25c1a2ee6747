// Chaos suite: sweeps seeded fault-injection plans over every compiled-in
// failpoint, on both reducer mechanisms, and asserts the PR's failure-
// containment contract end to end:
//
//   - an injected fault never crashes the process: it surfaces from
//     Session.RunErr as an error classifiable with errors.Is(err,
//     faultinject.ErrInjected), carrying the typed *faultinject.Fault and
//     the panicking goroutine's stack through *cilkm.PanicError;
//   - a job that fails (or merely ran under perturbation) leaves the
//     scheduler and the engine quiescent — no in-flight jobs or merges, no
//     pagepool pages outstanding, no worker-private views, balanced view-
//     arena accounting — which Session.Quiescent verifies after every job;
//   - reducers only ever observe complete jobs: after chaos is deactivated
//     a clean job still produces exactly the serial result, counting only
//     the successful jobs' contributions.
//
// The sweep is deterministic per seed (see faultinject): CHAOS_SEEDS widens
// the sweep (default 3 seeds per failpoint per mechanism).
package cilkm_test

import (
	"context"
	"errors"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	cilkm "repro"
	"repro/internal/faultinject"
	"repro/internal/reducers"
)

// chaosPoint arms one failpoint for one sweep leg.
type chaosPoint struct {
	id   faultinject.ID
	rule faultinject.Rule
	// storm selects the registration-storm scenario (registration-path
	// failpoints) instead of the fork-join job loop.
	storm bool
}

// chaosPoints lists the failpoints the sweep drives, with rules tuned so
// each leg sees both firing and non-firing hits: perturbation points fire
// often (they must not change results), fault points fire with a small
// limit so a job can fail and the next jobs run fault-free on a still-live
// plan.
var chaosPoints = []chaosPoint{
	{id: faultinject.SchedSteal, rule: faultinject.Rule{Prob: 0.3}},
	{id: faultinject.SchedPark, rule: faultinject.Rule{Prob: 0.5}},
	{id: faultinject.SchedForceSteal, rule: faultinject.Rule{Prob: 0.5}},
	{id: faultinject.PagepoolGetN, rule: faultinject.Rule{Prob: 0.15, Limit: 3}},
	{id: faultinject.TLMMGrow, rule: faultinject.Rule{Prob: 0.5, Limit: 2}, storm: true},
	{id: faultinject.DirectoryRegister, rule: faultinject.Rule{Prob: 0.3}, storm: true},
	{id: faultinject.MonoidIdentity, rule: faultinject.Rule{Prob: 0.01, Limit: 2}},
	{id: faultinject.MonoidReduce, rule: faultinject.Rule{Prob: 0.2, Limit: 3}},
	{id: faultinject.EndTraceTransfer, rule: faultinject.Rule{Prob: 0.15, Limit: 3}},
}

// alsoForceSteals makes every plan the suite builds arm the forced-steal
// failpoint beside the fault it is about; only TestUnderForcedSteals, which
// reruns the sweeps that way, sets it.
var alsoForceSteals bool

// newPlan is faultinject.NewPlan for this suite.
func newPlan(seed uint64) *faultinject.Plan {
	plan := faultinject.NewPlan(seed)
	if alsoForceSteals {
		plan.Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 0.5})
	}
	return plan
}

// chaosSeeds returns the plan seeds to sweep; CHAOS_SEEDS=n widens it.
func chaosSeeds(t testing.TB) []uint64 {
	n := 3
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad CHAOS_SEEDS=%q", s)
		}
		n = v
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	return seeds
}

// newChaosSession builds a session tuned to reach every failpoint: the
// modelled address space wires the TLMM growth failpoint in, and the
// directory's dense addresses make registrations fill SPA pages (and hence
// trigger growth) deterministically.
func newChaosSession(mech cilkm.Mechanism) *cilkm.Session {
	return cilkm.New(
		cilkm.WithMechanism(mech),
		cilkm.WithWorkers(4),
		cilkm.WithModelAddressSpace(),
	)
}

// assertContained accepts a nil error or a contained injected fault, and
// fails the test on anything else (a non-injected failure under chaos is a
// real bug, not chaos).
func assertContained(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var pe *cilkm.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("job failed with a non-contained error: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Errorf("contained panic lost its captured stack: %v", pe)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("job failed with a non-injected panic under chaos: %v", err)
	}
}

// chaosJob runs one reducer-heavy fork-join job: a grain-1 parallel loop in
// which every leaf touches every reducer, so steals produce deposits whose
// hypermerges carry matched reduce pairs (where the MonoidReduce failpoint
// lives).
func chaosJob(s *cilkm.Session, sums []*reducers.Add[int], iters int) error {
	return s.RunErr(func(c *cilkm.Context) {
		c.ParallelForGrain(0, iters, 1, func(c *cilkm.Context, i int) {
			// Yield the CPU so parked workers wake and steal; without real
			// latency per leaf the owner drains the whole loop serially and
			// no deposits (hence no hypermerges) ever happen.
			time.Sleep(10 * time.Microsecond)
			for k := range sums {
				sums[k].Add(c, 1)
			}
		})
	})
}

// chaosRun drives one (mechanism, failpoint, seed) leg and returns how many
// times the armed failpoint was evaluated.
func chaosRun(t *testing.T, mech cilkm.Mechanism, pt chaosPoint, seed uint64) uint64 {
	t.Helper()
	s := newChaosSession(mech)
	defer s.Close()

	const nsums = 8
	const iters = 120
	// Registered outside the chaos window so every job has reducers to
	// hammer even when registration faults are armed.
	sums := make([]*reducers.Add[int], nsums)
	for i := range sums {
		sums[i] = cilkm.NewAdd[int](s.Engine())
	}
	var want [nsums]int

	plan := newPlan(seed).Arm(pt.id, pt.rule)
	deactivate := faultinject.Activate(plan)
	deactivated := false
	defer func() {
		if !deactivated {
			deactivate()
		}
	}()

	if pt.storm {
		chaosStorm(t, s)
	} else {
		for j := 0; j < 4; j++ {
			err := chaosJob(s, sums, iters)
			assertContained(t, err)
			if err == nil {
				for k := range want {
					want[k] += iters
				}
			}
			if qerr := s.Quiescent(); qerr != nil {
				t.Fatalf("seed %#x job %d (err=%v): engine not quiescent: %v", seed, j, err, qerr)
			}
		}
	}
	hits := plan.Hits(pt.id)
	deactivate()
	deactivated = true

	// Chaos off: the engine must be fully reusable and exact.
	if err := chaosJob(s, sums, iters); err != nil {
		t.Fatalf("seed %#x: clean job after chaos failed: %v", seed, err)
	}
	for k := range want {
		want[k] += iters
	}
	for k, sum := range sums {
		if got := sum.Value(); got != want[k] {
			t.Errorf("seed %#x: reducer %d = %d, want %d — a failed job leaked a partial contribution",
				seed, k, got, want[k])
		}
	}
	if err := s.Quiescent(); err != nil {
		t.Fatalf("seed %#x: engine not quiescent after clean job: %v", seed, err)
	}
	return hits
}

// chaosStorm exercises the registration-path failpoints: a burst of
// registrations (crossing an SPA page boundary, so TLMM growth runs inside
// the chaos window), a job touching the survivors, then retirement.
func chaosStorm(t *testing.T, s *cilkm.Session) {
	t.Helper()
	monoid := reducers.TypedFuncMonoid[int]{
		IdentityFn: func() *int { return new(int) },
		ReduceFn:   func(left, right *int) *int { *left += *right; return left },
	}
	var handles []reducers.Handle[int]
	injected := 0
	for i := 0; i < 300; i++ {
		h, err := reducers.TryNewHandle[int](s.Engine(), monoid)
		if err != nil {
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("registration %d failed with a non-injected error: %v", i, err)
			}
			injected++
			continue
		}
		handles = append(handles, h)
	}
	err := s.RunErr(func(c *cilkm.Context) {
		c.ParallelForGrain(0, len(handles), 1, func(c *cilkm.Context, i int) {
			*handles[i].View(c) += i + 1
		})
	})
	assertContained(t, err)
	if err == nil {
		for i := range handles {
			if got := *handles[i].Peek(); got != i+1 {
				t.Errorf("storm handle %d = %d, want %d", i, got, i+1)
			}
		}
	}
	for i := range handles {
		handles[i].Close()
	}
	if qerr := s.Quiescent(); qerr != nil {
		t.Fatalf("registration storm left the engine non-quiescent (injected=%d): %v", injected, qerr)
	}
}

// chaosServicePoints lists the failpoints the multi-tenant service sweep
// drives: the four service-surface failpoints added with the resident
// runtime, plus two engine fault points re-run under concurrent multi-job
// submission (their containment contract must hold per tenant, not just per
// process).
var chaosServicePoints = []chaosPoint{
	{id: faultinject.ServiceAdmit, rule: faultinject.Rule{Prob: 0.15, Limit: 4}},
	{id: faultinject.ServiceDispatch, rule: faultinject.Rule{Prob: 0.5}},
	{id: faultinject.ServiceDeadline, rule: faultinject.Rule{Prob: 0.5}},
	{id: faultinject.ServiceDrain, rule: faultinject.Rule{Prob: 0.9}},
	{id: faultinject.SchedForceSteal, rule: faultinject.Rule{Prob: 0.5}},
	{id: faultinject.MonoidReduce, rule: faultinject.Rule{Prob: 0.1, Limit: 4}},
	{id: faultinject.EndTraceTransfer, rule: faultinject.Rule{Prob: 0.1, Limit: 4}},
}

// assertServiceContained accepts the errors a service job may legitimately
// report under chaos — success, a contained injected fault, or its own
// cancellation or deadline — and fails on anything else (in particular any
// non-injected panic).
func assertServiceContained(t *testing.T, err error) {
	t.Helper()
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	assertContained(t, err)
}

// chaosServiceRun drives one (mechanism, failpoint, seed) leg of the
// multi-tenant sweep: concurrent submitters × injected faults, asserting
// per-job containment (a tenant's fault or cancellation never perturbs
// another tenant's successful result) and pool-wide quiescence after drain.
// Returns how many times the armed failpoint was evaluated.
func chaosServiceRun(t *testing.T, mech cilkm.Mechanism, pt chaosPoint, seed uint64) uint64 {
	t.Helper()
	svc := cilkm.NewService(
		cilkm.WithMechanism(mech),
		cilkm.WithWorkers(4),
		cilkm.WithModelAddressSpace(),
		cilkm.WithQueueBound(4),
	)

	plan := newPlan(seed).Arm(pt.id, pt.rule)
	deactivate := faultinject.Activate(plan)
	deactivated := false
	defer func() {
		if !deactivated {
			deactivate()
		}
	}()

	const tenants = 4
	const jobsPerTenant = 3
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		tn := tn
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < jobsPerTenant; j++ {
				iters := 60 + 17*j + 5*tn
				var sum *reducers.Add[int]
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				deadline := (tn+j)%3 == 0
				if deadline {
					// Some jobs race a tight deadline, so cancellation paths
					// (and the deadline failpoint) are exercised every leg.
					ctx, cancel = context.WithTimeout(context.Background(), 2*time.Millisecond)
				}
				h, err := svc.Submit(ctx, func(c *cilkm.Context, js *cilkm.JobSession) {
					sum = cilkm.NewAdd[int](js)
					c.ParallelForGrain(0, iters, 1, func(c *cilkm.Context, i int) {
						time.Sleep(10 * time.Microsecond)
						sum.Add(c, 1)
					})
				})
				if err != nil {
					cancel()
					// Admission may fail only for injected or policy reasons, or
					// because the job's deadline passed before it was queued.
					if !errors.Is(err, faultinject.ErrInjected) &&
						!errors.Is(err, cilkm.ErrOverloaded) && !errors.Is(err, cilkm.ErrClosed) &&
						!(deadline && errors.Is(err, context.DeadlineExceeded)) {
						t.Errorf("tenant %d job %d: unexpected Submit error: %v", tn, j, err)
					}
					continue
				}
				if (tn+j)%4 == 1 {
					h.Cancel() // explicit cancellation keeps that path hot too
				}
				werr := h.Wait()
				cancel()
				assertServiceContained(t, werr)
				if werr == nil {
					// Per-tenant containment: a successful job's reducer holds
					// exactly its own contribution, whatever the other tenants'
					// faults and cancellations did concurrently.
					if got := sum.Value(); got != iters {
						t.Errorf("tenant %d job %d: sum = %d, want %d (foreign contribution leaked in)",
							tn, j, got, iters)
					}
				}
			}
		}()
	}
	wg.Wait()

	// Chaos still active for Close on the drain leg; for the others,
	// deactivate first so the clean job is genuinely clean.
	if pt.id != faultinject.ServiceDrain {
		deactivate()
		deactivated = true
		var sum *reducers.Add[int]
		h, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
			sum = cilkm.NewAdd[int](js)
			c.ParallelForGrain(0, 100, 1, func(c *cilkm.Context, i int) { sum.Add(c, 1) })
		})
		if err != nil {
			t.Fatalf("seed %#x: clean Submit after chaos failed: %v", seed, err)
		}
		if werr := h.Wait(); werr != nil {
			t.Fatalf("seed %#x: clean job after chaos failed: %v", seed, werr)
		}
		if got := sum.Value(); got != 100 {
			t.Errorf("seed %#x: clean job sum = %d, want 100", seed, got)
		}
	}

	// Drain: admission stops, in-flight jobs settle, and the pool plus
	// engine verify quiescent — zero leaked pages/arenas/views.
	if err := svc.Close(); err != nil {
		t.Fatalf("seed %#x: Close after multi-tenant chaos: %v", seed, err)
	}
	if _, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {}); !errors.Is(err, cilkm.ErrClosed) {
		t.Fatalf("seed %#x: Submit after Close = %v, want ErrClosed", seed, err)
	}
	return plan.Hits(pt.id)
}

// TestChaosServiceSweep is the multi-tenant sweep: concurrent submitters ×
// injected faults × seeds × both engines.  On the memory-mapped engine each
// of the four service failpoints must actually be reached (summed across
// seeds), so the sweep cannot silently decay into testing nothing.
func TestChaosServiceSweep(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			reached := make(map[faultinject.ID]uint64)
			for _, pt := range chaosServicePoints {
				pt := pt
				t.Run(pt.id.String(), func(t *testing.T) {
					for _, seed := range chaosSeeds(t) {
						reached[pt.id] += chaosServiceRun(t, mech, pt, seed)
					}
				})
			}
			if t.Failed() || mech != cilkm.MemoryMapped {
				return
			}
			for _, pt := range chaosServicePoints {
				if reached[pt.id] == 0 {
					t.Errorf("service failpoint %v was never reached by the sweep workload", pt.id)
				}
			}
		})
	}
}

// TestChaosSweep is the suite: seeds × failpoints × both engines.  On the
// memory-mapped engine every armed failpoint must actually be reached by
// the workload (summed across seeds), so the sweep cannot silently decay
// into testing nothing.
func TestChaosSweep(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			reached := make(map[faultinject.ID]uint64)
			for _, pt := range chaosPoints {
				pt := pt
				t.Run(pt.id.String(), func(t *testing.T) {
					for _, seed := range chaosSeeds(t) {
						reached[pt.id] += chaosRun(t, mech, pt, seed)
					}
				})
			}
			if t.Failed() || mech != cilkm.MemoryMapped {
				return
			}
			for _, pt := range chaosPoints {
				if reached[pt.id] == 0 {
					t.Errorf("failpoint %v was never reached by the sweep workload", pt.id)
				}
			}
		})
	}
}
