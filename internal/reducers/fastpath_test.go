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
// cold miss, a steady-state handle-cache hit never reaches the engine, and
// an epoch bump turns exactly one re-resolution into an engine hit (the
// view still exists; only the handle's stamp went stale).  A first-touch
// ReadView of an Add is a cold miss served the trace's zero block, which
// creates nothing; the first mutable access after it is a cold miss too,
// and creates the view, which a ReadView then returns.  Hits plus misses is
// the number of engine visits, which LookupCount reports.
func TestFastPathCounters(t *testing.T) {
	for _, m := range Mechanisms() {
		t.Run(m.String(), func(t *testing.T) {
			s := NewSession(m, 2, EngineOptions{})
			defer s.Close()
			eng := s.Engine()
			sum, peeked, unwritten := NewAdd[int64](eng), NewAdd[int64](eng), NewAdd[int64](eng)
			if err := s.Run(func(c *sched.Context) {
				sum.Add(c, 1) // visit 1: cold miss
				sum.Add(c, 1) // handle-cache hit
				c.Worker().BumpViewEpoch()
				sum.Add(c, 1)           // visit 2: engine hit
				_ = *peeked.ReadView(c) // visit 3: cold miss, the zero block
				_ = *peeked.ReadView(c) // handle-cache hit
				peeked.Add(c, 1)        // visit 4: cold miss, creates the view
				peeked.Add(c, 1)        // handle-cache hit
				if r, v := peeked.ReadView(c), peeked.View(c); r != v {
					t.Errorf("ReadView after View = %p, want the view %p", r, v)
				}
				_ = *unwritten.ReadView(c) // visit 5: cold miss, the zero block
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if sum.Value() != 3 || peeked.Value() != 2 || unwritten.Value() != 0 {
				t.Fatalf("sums = %d, %d, %d, want 3, 2, 0", sum.Value(), peeked.Value(), unwritten.Value())
			}
			want := metrics.LookupFastPathStats{Hits: 1, Misses: 4, ColdMisses: 4}
			if got := fastPathStats(t, eng); got != want {
				t.Fatalf("outcomes = %+v, want %+v", got, want)
			}
			if got := core.LookupCount(eng); got != 5 {
				t.Fatalf("LookupCount = %d, want 5 engine visits", got)
			}
			if got := eng.Overheads().Count(metrics.ViewCreation); got != 2 {
				t.Fatalf("views created = %d, want 2: a first-touch ReadView created one", got)
			}
			if got := identityElisions(t, eng); got != 0 {
				t.Fatalf("IdentityElisions = %d, want 0: nothing read-only was created", got)
			}

			eng.ResetOverheads()
			if got := fastPathStats(t, eng); got != (metrics.LookupFastPathStats{}) {
				t.Fatalf("ResetOverheads left lookup counters: %+v", got)
			}
		})
	}
}

// TestBoxedLookupMatchesHandle checks the boxed helper against the typed
// handle inside one trace.  A first-touch ReadView is served the trace's
// zero block; the helper is a mutable access, so it creates the view, and
// from then on View and ReadView both resolve to the helper's view word —
// ReadView's cached zero block included, which the creation invalidates.
// A write through the helper after a read-only first touch survives the
// merge.
func TestBoxedLookupMatchesHandle(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 1)
		eng := s.Engine()
		sum := NewAdd[int64](eng)
		if err := s.Run(func(c *sched.Context) {
			read := sum.ReadView(c)
			boxed := core.Lookup(eng, c, sum.Reducer()).(*int64)
			if boxed == read {
				t.Errorf("first-touch ReadView %p is the view Lookup created", read)
			}
			if again := sum.ReadView(c); again != boxed || sum.View(c) != boxed {
				t.Errorf("views differ: ReadView %p, Lookup %p, View %p", again, boxed, sum.View(c))
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
// each through its own cache slot, so both of the And's identity views are
// elided and nothing is reduced.  The Add's ReadViews are served each
// trace's zero block and create nothing.
func TestReadViewOnEveryWorkerStaysReadOnly(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		eng := NewEngine(m, 2, EngineOptions{})
		sum := NewAdd[int64](eng)
		and := NewAnd(eng)
		s := core.NewSession(2, eng)
		defer s.Close()
		var stolen atomic.Bool
		read := func(c *sched.Context) {
			for i := 0; i < 3; i++ {
				if got := *sum.ReadView(c); got != 0 {
					t.Errorf("ReadView = %d, want 0", got)
				}
				if got := *and.ReadView(c); !got {
					t.Errorf("And ReadView = %v, want true", got)
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
		if !and.Value() {
			t.Fatal("And = false, want true")
		}
		if got := identityElisions(t, eng); got != 2 {
			t.Fatalf("IdentityElisions = %d, want 2: a ReadView stamped the written bit", got)
		}
	})
}
