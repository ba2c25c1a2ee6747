package core_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// TestConcurrentRegisterLookupUnregisterStress hammers the reducer
// directory from inside ParallelFor bodies on both engines: every iteration
// updates long-lived noncommutative reducers (whose final values must match
// a serial execution exactly), registers a scratch reducer, drives it
// through lookups, verifies its local view, and unregisters it — so
// registration, lookup and slot recycling race with steals, view
// transferal and hypermerges.  Run it under -race: it is the concurrency
// gate for the lock-free registration paths.
func TestConcurrentRegisterLookupUnregisterStress(t *testing.T) {
	const (
		lanes = 8
		steps = 24
		iters = lanes * steps
	)
	workers := 4
	engines := map[string]core.Engine{
		"mm":       core.NewMM(core.MMConfig{Workers: workers}),
		"hypermap": hypermap.New(hypermap.Config{Workers: workers}),
	}
	for name, eng := range engines {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(workers, eng)
			defer s.Close()

			// Long-lived noncommutative reducers: one concatenation lane
			// per residue class.  Their final strings must equal the serial
			// left-to-right concatenation regardless of the churn below.
			cats := make([]*core.Reducer, lanes)
			for i := range cats {
				r, err := eng.Register(catMonoid)
				if err != nil {
					t.Fatalf("Register: %v", err)
				}
				cats[i] = r
			}
			baseline := eng.Registered()

			var scratchFailures atomic.Int64
			err := s.Run(func(c *sched.Context) {
				c.ParallelForGrain(0, iters, 1, func(c *sched.Context, i int) {
					lane := i % lanes
					step := i / lanes
					// The ordered update: lane strings grow in serial order.
					core.Lookup(eng, c, cats[lane]).(*catView).s += string(rune('a' + step%26))

					// Scratch churn: a register → lookup → verify →
					// unregister cycle whose slot immediately becomes
					// available for recycling by a concurrent iteration.
					scratch, err := eng.Register(sumMonoid)
					if err != nil {
						scratchFailures.Add(1)
						return
					}
					const bumps = 8
					for k := 0; k < bumps; k++ {
						core.Lookup(eng, c, scratch).(*sumView).v++
					}
					if got := core.Lookup(eng, c, scratch).(*sumView).v; got != bumps {
						scratchFailures.Add(1)
					}
					eng.Unregister(scratch)
					// A second unregister of the now-stale handle must be a
					// no-op even if the slot was already recycled elsewhere.
					eng.Unregister(scratch)
				})
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if n := scratchFailures.Load(); n != 0 {
				t.Fatalf("%d scratch reducers misbehaved", n)
			}
			if got := eng.Registered(); got != baseline {
				t.Fatalf("Registered = %d after churn, want %d", got, baseline)
			}
			want := ""
			for step := 0; step < steps; step++ {
				want += string(rune('a' + step%26))
			}
			for lane, r := range cats {
				if got := r.Value().(*catView).s; got != want {
					t.Fatalf("lane %d: got %q, want %q — noncommutative merge order broken under churn",
						lane, got, want)
				}
			}
		})
	}
}

// TestConcurrentChurnManyTraces repeats shorter churn bursts across many
// Run invocations, so registration races also cross root-merge boundaries
// (deposited views of retired scratch reducers must be dropped, never
// absorbed into a recycled slot's new owner).
func TestConcurrentChurnManyTraces(t *testing.T) {
	workers := 4
	for name, eng := range map[string]core.Engine{
		"mm":       core.NewMM(core.MMConfig{Workers: workers}),
		"hypermap": hypermap.New(hypermap.Config{Workers: workers}),
	} {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(workers, eng)
			defer s.Close()
			// An exporter scrapes throughout: under -race this pins that
			// every counter it reads is an atomic the workers flush into,
			// never a worker-owned field (the arena and lookup counts).
			stop := make(chan struct{})
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				for {
					select {
					case <-stop:
						return
					default:
						eng.(metrics.Source).SampleMetrics(func(metrics.MetricSample) {})
						runtime.Gosched()
					}
				}
			}()
			defer func() { close(stop); <-scraped }()
			keeper, _ := eng.Register(sumMonoid)
			arenaKeeper, _ := eng.Register(arenaSumMonoid)
			const rounds = 6
			const perRound = 64
			for round := 0; round < rounds; round++ {
				survivors := make([]*core.Reducer, perRound)
				err := s.Run(func(c *sched.Context) {
					c.ParallelForGrain(0, perRound, 1, func(c *sched.Context, i int) {
						core.Lookup(eng, c, keeper).(*sumView).v++
						*core.Lookup(eng, c, arenaKeeper).(*int64)++
						scratch, err := eng.Register(sumMonoid)
						if err != nil {
							t.Errorf("Register: %v", err)
							return
						}
						core.Lookup(eng, c, scratch).(*sumView).v += 1000
						if i%2 == 0 {
							// Half retire inside the trace: their in-flight
							// updates are dropped and their slots recycle
							// while the run is still executing.
							eng.Unregister(scratch)
						} else {
							// The rest outlive the run and are retired after
							// the root merge absorbed their views.
							survivors[i] = scratch
						}
					})
				})
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for _, r := range survivors {
					if r == nil {
						continue
					}
					if got := r.Value().(*sumView).v; got != 1000 {
						t.Fatalf("round %d: surviving scratch = %d, want 1000", round, got)
					}
					eng.Unregister(r)
				}
			}
			if got := keeper.Value().(*sumView).v; got != rounds*perRound {
				t.Fatalf("keeper = %d, want %d — scratch churn leaked into a live reducer", got, rounds*perRound)
			}
			if got := *arenaKeeper.Value().(*int64); got != rounds*perRound {
				t.Fatalf("arena keeper = %d, want %d", got, rounds*perRound)
			}
			if got := eng.Registered(); got != 2 {
				t.Fatalf("Registered = %d, want 2", got)
			}
		})
	}
}

// TestUnregisterWindowStress churns Register/Unregister on the directory —
// every freed address is the next one handed out — while
// hypermerges decide which side of a recycled address is stale.  Each lane
// writes a scratch reducer, retires it with the view still in flight, and
// registers a survivor that is then written from a nested parallel loop, so
// survivors' views meet retired reducers' views at shared addresses in
// current traces and in deposits on every worker.  Validity is a flag on
// the reducer that Unregister clears before the address is released: a
// survivor must never lose a view (its sum is exact), a retired reducer
// must absorb nothing, and on the memory-mapped engine the stale drops are
// exactly the retired reducers' views.  Run it under -race.
func TestUnregisterWindowStress(t *testing.T) {
	const (
		workers = 4
		rounds  = 8
		lanes   = 32
		writes  = 16
	)
	for name, eng := range map[string]core.Engine{
		"mm":       core.NewMM(core.MMConfig{Workers: workers}),
		"hypermap": hypermap.New(hypermap.Config{Workers: workers}),
	} {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(workers, eng)
			defer s.Close()
			keeper, _ := eng.Register(arenaSumMonoid)
			for round := 0; round < rounds; round++ {
				var retired, survivors [lanes]*core.Reducer
				err := s.Run(func(c *sched.Context) {
					c.ParallelForGrain(0, lanes, 1, func(c *sched.Context, i int) {
						*core.Lookup(eng, c, keeper).(*int64)++
						scratch, _ := eng.Register(arenaSumMonoid)
						*core.Lookup(eng, c, scratch).(*int64) += 1000
						eng.Unregister(scratch)
						retired[i] = scratch
						live, _ := eng.Register(arenaSumMonoid)
						c.ParallelForGrain(0, writes, 1, func(c *sched.Context, _ int) {
							*core.Lookup(eng, c, live).(*int64)++
							runtime.Gosched()
						})
						survivors[i] = live
					})
				})
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for i := range survivors {
					if got := *survivors[i].Value().(*int64); got != writes {
						t.Fatalf("round %d lane %d: survivor = %d, want %d — a live reducer's view was dropped", round, i, got, writes)
					}
					if got := *retired[i].Value().(*int64); got != 0 {
						t.Fatalf("round %d lane %d: retired reducer absorbed %d", round, i, got)
					}
					eng.Unregister(survivors[i])
				}
				if err := eng.Quiescent(); err != nil {
					t.Fatalf("round %d: not quiescent: %v", round, err)
				}
			}
			if got := *keeper.Value().(*int64); got != rounds*lanes {
				t.Fatalf("keeper = %d, want %d", got, rounds*lanes)
			}
			if mm, ok := eng.(*core.MM); ok {
				// Each retired reducer had exactly one written view in flight;
				// those are dropped, once each, and nothing else ever is.
				if drops := mm.MergeStats().StaleViewDrops; drops != rounds*lanes {
					t.Fatalf("%d stale view drops, want %d: one per retired reducer", drops, rounds*lanes)
				}
			}
		})
	}
}
