package reducers

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/metrics"
	"repro/internal/sched"
)

func fastPathStats(t *testing.T, eng core.Engine) metrics.LookupFastPathStats {
	t.Helper()
	switch e := eng.(type) {
	case *core.MM:
		return e.FastPathStats()
	case *hypermap.HM:
		return e.FastPathStats()
	}
	t.Fatalf("engine %T exposes no fast-path stats", eng)
	return metrics.LookupFastPathStats{}
}

// TestFastPathCounters pins the engines' lookup outcome counters, read
// after Run returns (workers flush them at trace end): a first touch is a
// cold miss, a steady-state handle-cache hit never reaches the engine, an
// epoch bump turns exactly one re-resolution into an engine hit (the view
// still exists; only the handle's stamp went stale), and a View of a view
// so far only read is a warm miss that stamps the written bit.  Hits plus
// misses is the number of engine visits, which LookupCount reports.
func TestFastPathCounters(t *testing.T) {
	for _, m := range Mechanisms() {
		t.Run(m.String(), func(t *testing.T) {
			s := NewSession(m, 2, EngineOptions{})
			defer s.Close()
			eng := s.Engine()
			sum, peeked := NewAdd[int64](eng), NewAdd[int64](eng)
			if err := s.Run(func(c *sched.Context) {
				sum.Add(c, 1) // visit 1: cold miss
				sum.Add(c, 1) // handle-cache hit
				c.Worker().BumpViewEpoch()
				sum.Add(c, 1)           // visit 2: engine hit
				_ = *peeked.ReadView(c) // visit 3: cold miss, read-only
				_ = *peeked.ReadView(c) // handle-cache hit
				peeked.Add(c, 1)        // visit 4: warm miss, stamps the written bit
				peeked.Add(c, 1)        // handle-cache hit
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if sum.Value() != 3 || peeked.Value() != 2 {
				t.Fatalf("sums = %d, %d, want 3, 2", sum.Value(), peeked.Value())
			}
			want := metrics.LookupFastPathStats{Hits: 1, Misses: 3, ColdMisses: 2}
			if got := fastPathStats(t, eng); got != want {
				t.Fatalf("outcomes = %+v, want %+v", got, want)
			}
			if got := core.LookupCount(eng); got != 4 {
				t.Fatalf("LookupCount = %d, want 4 engine visits", got)
			}

			eng.ResetOverheads()
			if got := fastPathStats(t, eng); got != (metrics.LookupFastPathStats{}) {
				t.Fatalf("ResetOverheads left lookup counters: %+v", got)
			}
		})
	}
}

// TestBoxedLookupMatchesHandle checks the boxed helper against the typed
// handle inside one trace: both resolve the same view word, and the helper
// is a mutable access — a write through it after a read-only first touch
// survives the merge instead of being elided with the view.
func TestBoxedLookupMatchesHandle(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 1)
		eng := s.Engine()
		sum := NewAdd[int64](eng)
		if err := s.Run(func(c *sched.Context) {
			read := sum.ReadView(c)
			boxed := core.Lookup(eng, c, sum.Reducer()).(*int64)
			if boxed != read || sum.View(c) != read {
				t.Errorf("views differ: ReadView %p, Lookup %p, View %p", read, boxed, sum.View(c))
			}
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := s.Run(func(c *sched.Context) {
			_ = *sum.ReadView(c)
			*core.Lookup(eng, c, sum.Reducer()).(*int64) += 5
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := sum.Value(); got != 5 {
			t.Fatalf("sum = %d, want 5: the boxed helper did not stamp the written bit", got)
		}
	})
}

// identityElisions reads the engine's elision counter.
func identityElisions(t *testing.T, eng core.Engine) int64 {
	t.Helper()
	switch e := eng.(type) {
	case *core.MM:
		return e.MergeStats().IdentityElisions
	case *hypermap.HM:
		return e.IdentityElisions()
	}
	t.Fatalf("engine %T exposes no elision counter", eng)
	return 0
}

// TestReadViewOnEveryWorkerStaysReadOnly checks that a ReadView is a
// read-only access on each worker of the runtime: both workers only read,
// each through its own cache slot, so both identity views are elided and
// nothing is reduced.
func TestReadViewOnEveryWorkerStaysReadOnly(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		eng := NewEngine(m, 2, EngineOptions{})
		sum := NewAdd[int64](eng)
		s := core.NewSession(2, eng)
		defer s.Close()
		var stolen atomic.Bool
		read := func(c *sched.Context) {
			for i := 0; i < 3; i++ {
				if got := *sum.ReadView(c); got != 0 {
					t.Errorf("ReadView = %d, want 0", got)
				}
			}
		}
		if err := s.Run(func(c *sched.Context) {
			c.Fork(func(c *sched.Context) {
				// Hold this worker until the other one has stolen the
				// continuation, so both worker ids take part.
				for deadline := time.Now().Add(10 * time.Second); !stolen.Load(); runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Error("continuation was never stolen")
						return
					}
				}
				read(c)
			}, func(c *sched.Context) {
				stolen.Store(true)
				read(c)
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := sum.Value(); got != 0 {
			t.Fatalf("sum = %d, want 0", got)
		}
		if got := identityElisions(t, eng); got != 2 {
			t.Fatalf("IdentityElisions = %d, want 2: a ReadView stamped the written bit", got)
		}
	})
}
