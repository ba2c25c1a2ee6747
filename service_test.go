package cilkm_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cilkm "repro"
	"repro/internal/metrics"
	"repro/internal/reducers"
)

// TestServiceFacadeQuickstart exercises the documented serving workflow:
// submit jobs with per-job reducer sessions, wait, read results, drain.
// Reducer values are read after Wait — the root deposit is merged into the
// leftmost views before the handle completes — and stay readable after the
// session retired the registration.
func TestServiceFacadeQuickstart(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		t.Run(fmt.Sprint(mech), func(t *testing.T) {
			svc := cilkm.NewService(cilkm.WithMechanism(mech), cilkm.WithWorkers(4))
			var sum *reducers.Add[int64]
			var inTrace int64
			h, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
				sum = cilkm.NewAdd[int64](js)
				c.ParallelFor(0, 10_000, func(c *cilkm.Context, i int) { sum.Add(c, int64(i)) })
				// In-trace read: every join has folded its branch back into
				// the root trace's view by now.
				inTrace = *sum.View(c)
			})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if err := h.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			const want = int64(10_000) * 9_999 / 2
			if inTrace != want {
				t.Fatalf("in-trace sum = %d, want %d", inTrace, want)
			}
			if got := sum.Value(); got != want {
				t.Fatalf("post-merge sum = %d, want %d", got, want)
			}
			// The job's session retired its reducers; the engine must hold
			// no live registrations and drain to verified quiescence.
			if n := svc.Engine().Registered(); n != 0 {
				t.Fatalf("%d reducers still registered after job completion", n)
			}
			if err := svc.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestServiceTenantIsolation is the colliding-slot isolation test: two
// tenants repeatedly register reducers through their own job sessions on
// the directory's LIFO free list (maximal slot collision and recycling)
// under steal pressure, on both engines.  Every job must read exactly its
// own total — a stale cross-job view merged in (or a view leaked out) would
// corrupt it.
func TestServiceTenantIsolation(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		t.Run(fmt.Sprint(mech), func(t *testing.T) {
			svc := cilkm.NewService(
				cilkm.WithMechanism(mech),
				cilkm.WithWorkers(4),
				cilkm.WithQueueBound(8),
			)
			const tenants = 2
			const jobsPerTenant = 20
			var wg sync.WaitGroup
			errCh := make(chan error, tenants*jobsPerTenant)
			for tn := 0; tn < tenants; tn++ {
				tn := tn
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < jobsPerTenant; j++ {
						// Each tenant's contribution is distinct, so a single
						// foreign update changes the total detectably.
						contrib := int64(1 + tn*1_000_000)
						iters := 500 + 37*j
						var sum, aux *reducers.Add[int64]
						h, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
							sum = cilkm.NewAdd[int64](js)
							aux = cilkm.NewAdd[int64](js) // second slot per job widens collisions
							c.ParallelForGrain(0, iters, 1, func(c *cilkm.Context, i int) {
								sum.Add(c, contrib)
								aux.Add(c, 1)
							})
						})
						if err != nil {
							errCh <- fmt.Errorf("tenant %d job %d: Submit: %v", tn, j, err)
							return
						}
						if err := h.Wait(); err != nil {
							errCh <- fmt.Errorf("tenant %d job %d: Wait: %v", tn, j, err)
							return
						}
						if got, want := sum.Value(), contrib*int64(iters); got != want {
							errCh <- fmt.Errorf("tenant %d job %d: sum = %d, want %d (cross-tenant view observed)", tn, j, got, want)
							return
						}
						if got := aux.Value(); got != int64(iters) {
							errCh <- fmt.Errorf("tenant %d job %d: aux = %d, want %d", tn, j, got, iters)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			if n := svc.Engine().Registered(); n != 0 {
				t.Fatalf("%d reducers still registered after all jobs", n)
			}
			if err := svc.Close(); err != nil {
				t.Fatalf("Close (quiescence): %v", err)
			}
		})
	}
}

// TestServiceConcurrentSubmissionEquivalence runs the same deterministic
// aggregate as concurrent jobs on both engines and checks every job's
// result matches the serial computation — the equivalence suites' guarantee
// extended to concurrent multi-job submission.
func TestServiceConcurrentSubmissionEquivalence(t *testing.T) {
	const jobs = 12
	const n = 3_000
	wantSum := int64(n) * int64(n-1) / 2
	for _, mech := range cilkm.Mechanisms() {
		t.Run(fmt.Sprint(mech), func(t *testing.T) {
			svc := cilkm.NewService(cilkm.WithMechanism(mech), cilkm.WithWorkers(4))
			var wg sync.WaitGroup
			sums := make([]*reducers.Add[int64], jobs)
			mins := make([]*reducers.Min[int], jobs)
			errs := make([]error, jobs)
			for j := 0; j < jobs; j++ {
				j := j
				wg.Add(1)
				go func() {
					defer wg.Done()
					h, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
						sums[j] = cilkm.NewAdd[int64](js)
						mins[j] = cilkm.NewMin[int](js)
						c.ParallelFor(0, n, func(c *cilkm.Context, i int) {
							sums[j].Add(c, int64(i))
							mins[j].Update(c, i+j)
						})
					})
					if err != nil {
						errs[j] = err
						return
					}
					errs[j] = h.Wait()
				}()
			}
			wg.Wait()
			for j := 0; j < jobs; j++ {
				if errs[j] != nil {
					t.Fatalf("job %d: %v", j, errs[j])
				}
				if got := sums[j].Value(); got != wantSum {
					t.Fatalf("job %d: sum = %d, want %d", j, got, wantSum)
				}
				v, ok := mins[j].Value()
				if !ok || v != j {
					t.Fatalf("job %d: min = %d (ok=%v), want %d", j, v, ok, j)
				}
			}
			if err := svc.Close(); err != nil {
				t.Fatalf("Close (quiescence): %v", err)
			}
		})
	}
}

// TestServiceSnapshotReadPath checks the non-worker read path: an
// app-lifetime reducer registered on the shared engine accumulates across a
// stream of jobs while an outside goroutine snapshots it concurrently with
// the per-job merges, observing monotonically non-decreasing values.
func TestServiceSnapshotReadPath(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		t.Run(fmt.Sprint(mech), func(t *testing.T) {
			svc := cilkm.NewService(cilkm.WithMechanism(mech), cilkm.WithWorkers(4))
			// App-lifetime reducer: registered on the engine, not a job
			// session, so it survives every job and each job's root merge
			// folds into its leftmost view.
			sum := cilkm.NewAdd[int64](svc.Engine())
			const jobs = 40
			const perJob = 200
			stop := make(chan struct{})
			firstRead := make(chan struct{})
			var prev int64
			var reads atomic.Int64
			var sampler sync.WaitGroup
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Snapshot copies under the engine's leftmost lock, which
					// every root merge holds: consistent, and non-decreasing
					// for a monotone reducer.
					v := sum.Snapshot()
					if v < prev {
						t.Errorf("snapshot went backwards: %d after %d", v, prev)
						return
					}
					prev = v
					if reads.Add(1) == 1 {
						close(firstRead)
					}
				}
			}()
			<-firstRead // the sampler is live before the job stream starts
			for j := 0; j < jobs; j++ {
				h, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
					c.ParallelForGrain(0, perJob, 1, func(c *cilkm.Context, i int) {
						sum.Add(c, 1)
					})
				})
				if err != nil {
					t.Fatalf("Submit %d: %v", j, err)
				}
				if err := h.Wait(); err != nil {
					t.Fatalf("job %d: %v", j, err)
				}
			}
			close(stop)
			sampler.Wait()
			if got := sum.Snapshot(); got != jobs*perJob {
				t.Fatalf("final snapshot = %d, want %d", got, jobs*perJob)
			}
			if reads.Load() == 0 {
				t.Fatal("sampler performed no reads")
			}
			sum.Close()
			if err := svc.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestServiceOverloadWithReducers is the acceptance overload scenario on a
// real engine: a saturated queue under the reject policy answers
// ErrOverloaded within bounded time while the in-flight reducer jobs
// complete with correct values, and Close verifies zero leaked
// pages/arenas/views.
func TestServiceOverloadWithReducers(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		t.Run(fmt.Sprint(mech), func(t *testing.T) {
			svc := cilkm.NewService(
				cilkm.WithMechanism(mech),
				cilkm.WithWorkers(2),
				cilkm.WithQueueBound(2),
				cilkm.WithAdmitPolicy(cilkm.AdmitReject),
			)
			gate := make(chan struct{})
			started := make(chan struct{}, 2)
			sums := make([]*reducers.Add[int64], 4)
			var handles []*cilkm.JobHandle
			// Two blockers occupy both workers...
			for i := 0; i < 2; i++ {
				i := i
				h, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
					sums[i] = cilkm.NewAdd[int64](js)
					started <- struct{}{}
					<-gate
					c.ParallelFor(0, 1_000, func(c *cilkm.Context, j int) { sums[i].Add(c, 1) })
				})
				if err != nil {
					t.Fatalf("Submit blocker %d: %v", i, err)
				}
				handles = append(handles, h)
			}
			<-started
			<-started
			// ...then two more fill the admission queue exactly.
			for i := 2; i < 4; i++ {
				i := i
				h, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
					sums[i] = cilkm.NewAdd[int64](js)
					c.ParallelFor(0, 1_000, func(c *cilkm.Context, j int) { sums[i].Add(c, 1) })
				})
				if err != nil {
					t.Fatalf("Submit queued %d: %v", i, err)
				}
				handles = append(handles, h)
			}
			// Pool busy + queue full: the next submission must be rejected
			// quickly, not block.
			done := make(chan error, 1)
			go func() {
				_, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, cilkm.ErrOverloaded) {
					t.Fatalf("overload Submit error = %v, want ErrOverloaded", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("reject-policy Submit blocked on a saturated queue")
			}
			close(gate)
			for i, h := range handles {
				if err := h.Wait(); err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
				if got := sums[i].Value(); got != 1_000 {
					t.Fatalf("job %d: sum = %d, want 1000", i, got)
				}
			}
			if err := svc.Close(); err != nil {
				t.Fatalf("Close (leak check): %v", err)
			}
		})
	}
}

// TestServiceJobSessionScoping checks a retired session rejects late
// registration and that early Unregister through the session works.
func TestServiceJobSessionScoping(t *testing.T) {
	svc := cilkm.NewService(cilkm.WithWorkers(2))
	var late *cilkm.JobSession
	h, err := svc.Submit(context.Background(), func(c *cilkm.Context, js *cilkm.JobSession) {
		sum := cilkm.NewAdd[int](js)
		sum.Add(c, 41)
		js.Unregister(sum.Reducer()) // early retire of one reducer
		if js.Live() != 0 {
			panic(fmt.Sprintf("Live = %d after Unregister, want 0", js.Live()))
		}
		late = js
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := late.Register(cilkm.Monoid{}); err == nil {
		t.Fatal("Register on retired session succeeded, want error")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// brokenIdentity is a tenant monoid whose identity constructor panics.  Its
// view carries a pointer, so it takes the heap path: AdaptMonoid probes the
// identity of a pointer-free view itself, before registration is reached.
type brokenIdentity struct{}

func (brokenIdentity) Identity() *[]int          { panic("tenant identity boom") }
func (brokenIdentity) Reduce(l, r *[]int) *[]int { *l = append(*l, *r...); return l }

// TestServiceBrokenTenantMonoidLeaksNoAddress submits jobs that register a
// monoid whose Identity panics.  Each must complete with a *PanicError and
// cost the shared directory nothing: JobSession promises a tenant cannot
// grow the resident address space, and a registration that took its address
// before building the view broke that one slot per job.
func TestServiceBrokenTenantMonoidLeaksNoAddress(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		t.Run(fmt.Sprint(mech), func(t *testing.T) {
			svc := cilkm.NewService(
				cilkm.WithMechanism(mech),
				cilkm.WithWorkers(2),
			)
			stats := svc.Engine().(interface {
				DirectoryStats() metrics.DirectoryStats
			}).DirectoryStats
			submit := func(fn func(*cilkm.Context, *cilkm.JobSession)) error {
				t.Helper()
				h, err := svc.Submit(context.Background(), fn)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				return h.Wait()
			}
			good := func(c *cilkm.Context, js *cilkm.JobSession) { cilkm.NewAdd[int](js).Add(c, 1) }
			if err := submit(good); err != nil {
				t.Fatalf("healthy job: %v", err)
			}
			before := stats()
			for i := 0; i < 5; i++ {
				err := submit(func(c *cilkm.Context, js *cilkm.JobSession) {
					cilkm.NewCustomOf[[]int](js, brokenIdentity{})
				})
				var pe *cilkm.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("job %d with a panicking Identity: Wait = %v, want a *PanicError", i, err)
				}
			}
			if err := submit(good); err != nil {
				t.Fatalf("healthy job after the broken ones: %v", err)
			}
			after := stats()
			if after.FreshSlots != before.FreshSlots || after.FreeSlots != before.FreeSlots {
				t.Errorf("broken tenant grew the directory: FreshSlots %d → %d, FreeSlots %d → %d",
					before.FreshSlots, after.FreshSlots, before.FreeSlots, after.FreeSlots)
			}
			if n := svc.Engine().Registered(); n != 0 {
				t.Errorf("%d reducers still registered after all jobs", n)
			}
			if err := svc.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}
