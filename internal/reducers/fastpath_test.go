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
// view still exists; only the handle's stamp went stale).  A ReadView of an
// Add the trace has not written is a cold miss served the trace's zero
// block, which creates nothing and is not cached, so the next one visits
// the engine again; the first mutable access after it is a cold miss too,
// and creates the view, which a ReadView then returns from the cache.  A
// ReadView of an And creates the trace's own view, which the cache then
// serves to View and ReadView alike.  Hits plus misses is the number of
// engine visits, which LookupCount reports.
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
				_ = *peeked.ReadView(c) // visit 4: the zero block is not cached
				peeked.Add(c, 1)        // visit 5: cold miss, creates the view
				peeked.Add(c, 1)        // handle-cache hit
				if r, v := peeked.ReadView(c), peeked.View(c); r != v {
					t.Errorf("ReadView after View = %p, want the view %p", r, v)
				}
				_ = *unwritten.ReadView(c) // visit 6: cold miss, the zero block
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if sum.Value() != 3 || peeked.Value() != 2 || unwritten.Value() != 0 {
				t.Fatalf("sums = %d, %d, %d, want 3, 2, 0", sum.Value(), peeked.Value(), unwritten.Value())
			}
			want := metrics.LookupFastPathStats{Hits: 1, Misses: 5, ColdMisses: 5}
			if got := fastPathStats(t, eng); got != want {
				t.Fatalf("outcomes = %+v, want %+v", got, want)
			}
			if got := core.LookupCount(eng); got != 6 {
				t.Fatalf("LookupCount = %d, want 6 engine visits", got)
			}
			if got := eng.Overheads().Count(metrics.ViewCreation); got != 2 {
				t.Fatalf("views created = %d, want 2: a first-touch ReadView created one", got)
			}

			eng.ResetOverheads()
			if got := fastPathStats(t, eng); got != (metrics.LookupFastPathStats{}) {
				t.Fatalf("ResetOverheads left lookup counters: %+v", got)
			}

			and := NewAnd(eng)
			if err := s.Run(func(c *sched.Context) {
				r := and.ReadView(c) // visit 1: creates the trace's own view
				if !*r || and.ReadView(c) != r {
					t.Errorf("And ReadView = %v, or the second one another view", *r)
				}
				if v := and.View(c); v != r {
					t.Errorf("View after ReadView = %p, want the cached view %p", v, r)
				}
				*and.View(c) = false
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if and.Value() {
				t.Fatal("And = true, want false: the write through View was lost")
			}
			if got := core.LookupCount(eng); got != 1 {
				t.Fatalf("ReadView, ReadView, View, View of one And: LookupCount = %d, want 1 engine visit", got)
			}
			if got := eng.Overheads().Count(metrics.ViewCreation); got != 1 {
				t.Fatalf("views created = %d, want 1: the And's", got)
			}

			eng.ResetOverheads()
			unread := NewAdd[int64](eng)
			if err := s.Run(func(c *sched.Context) {
				for i := 0; i < 2; i++ { // visits 1 and 2: the zero block, uncached
					if got := *unread.ReadView(c); got != 0 {
						t.Errorf("ReadView %d = %d, want 0", i, got)
					}
				}
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := unread.Value(); got != 0 {
				t.Fatalf("unread sum = %d, want 0", got)
			}
			if got := core.LookupCount(eng); got != 2 {
				t.Fatalf("two ReadViews of an unwritten Add: LookupCount = %d, want 2 engine visits", got)
			}
			if got := eng.Overheads().Count(metrics.ViewCreation); got != 0 {
				t.Fatalf("views created = %d, want 0: the zero block served both reads", got)
			}
		})
	}
}

// TestBoxedLookupMatchesHandle checks the boxed helper against the typed
// handle inside one trace.  A first-touch ReadView is served the trace's
// zero block; the helper is a mutable access, so it creates the view, and
// from then on View and ReadView both resolve to the helper's view word:
// the zero block was never cached, so nothing has to be invalidated.
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
			t.Fatalf("sum = %d, want 5: the write after a read-only first touch was lost", got)
		}
	})
}

// TestReadViewOnEveryWorkerStaysReadOnly checks ReadView on each worker of
// the runtime: both workers only read, each through its own cache slot.
// The Add's ReadViews are served each trace's zero block and create
// nothing; each worker's trace creates one And view, and the stolen
// continuation's is reduced into the other at the join, so the values stay
// the identities.
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
		ms := eng.(interface {
			MergeStats() metrics.MergePipelineStats
		}).MergeStats()
		if ms.Reduces != 1 || ms.Adopts != 0 {
			t.Fatalf("reduces=%d adopts=%d, want 1 and 0: the two And views meet at the join", ms.Reduces, ms.Adopts)
		}
		if got := eng.Overheads().Count(metrics.ViewCreation); got != 2 {
			t.Fatalf("views created = %d, want 2: one And view per worker, none for the Add", got)
		}
	})
}
