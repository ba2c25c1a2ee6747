package core_test

import (
	"errors"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hypermap"
	"repro/internal/sched"
	"repro/internal/spa"
)

// chaosSeeds returns the seeds `make chaos` sweeps: CHAOS_SEEDS of them,
// three by default.
func chaosSeeds(t *testing.T) []uint64 {
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

// TestEndTraceFailureRestoresOuterTrace pins the contract the scheduler's
// once-per-trace EndTrace relies on (sched.ReducerRuntime.EndTrace): a
// nested trace begins inside a trace that holds written views, and its view
// transferal fails (the endtrace/transfer failpoint).  The failed EndTrace
// must itself restore the outer trace, since nothing calls it again: the
// outer views read as written, the outer EndTrace and root merge give exact
// sums without the nested trace's updates, and the engine is quiescent.
// The seed sizes the reducer set (one or two SPA pages) and which of them
// the nested trace writes.
func TestEndTraceFailureRestoresOuterTrace(t *testing.T) { endTraceFailure(t, false) }

// TestForcedStealsEndTraceFailure runs the same traces inside a fork's
// continuation executed as a stolen task, so they nest in that task's trace
// rather than in the root's.
func TestForcedStealsEndTraceFailure(t *testing.T) { endTraceFailure(t, true) }

func endTraceFailure(t *testing.T, forced bool) {
	for _, seed := range chaosSeeds(t) {
		eng := core.NewMM(core.MMConfig{Workers: 1})
		s := core.NewSession(1, eng)
		rs := make([]*core.Reducer, 1+seed%(2*spa.SlotsPerMap))
		for i := range rs {
			rs[i], _ = eng.Register(arenaSumMonoid)
		}
		stride := 1 + int(seed%3)
		plan := faultinject.NewPlan(seed).Arm(faultinject.EndTraceTransfer, faultinject.Rule{Prob: 1, Limit: 1})
		if forced {
			plan.Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 1})
		}
		deactivate := faultinject.Activate(plan)
		err := s.RunErr(func(c *sched.Context) {
			c.Fork(func(*sched.Context) {}, func(c *sched.Context) {
				w := c.Worker()
				outer := eng.BeginTrace(w)
				for i, r := range rs {
					*core.Lookup(eng, c, r).(*int64) += int64(i + 1)
				}
				inner := eng.BeginTrace(w)
				for i := 0; i < len(rs); i += stride {
					*core.Lookup(eng, c, rs[i]).(*int64) += 1000
				}
				if err := endTracePanic(eng, w, inner); !errors.Is(err, faultinject.ErrInjected) {
					t.Errorf("seed %d: nested EndTrace failed with %v, want an injected fault", seed, err)
				}
				for i, r := range rs {
					if got := *core.Lookup(eng, c, r).(*int64); got != int64(i+1) {
						t.Errorf("seed %d: outer view %d reads %d after the nested failure, want %d", seed, i, got, i+1)
						break
					}
				}
				eng.MergeRootDeposit(eng.EndTrace(w, outer))
			})
		})
		deactivate()
		if err != nil {
			t.Errorf("seed %d: RunErr: %v", seed, err)
		}
		if n := plan.Fires(faultinject.EndTraceTransfer); n != 1 {
			t.Errorf("seed %d: transferal failed %d times, want 1", seed, n)
		}
		if forced && plan.Fires(faultinject.SchedForceSteal) == 0 {
			t.Errorf("seed %d: no fork was forced", seed)
		}
		for i, r := range rs {
			if got := *r.Value().(*int64); got != int64(i+1) {
				t.Errorf("seed %d: reducer %d = %d, want %d", seed, i, got, i+1)
				break
			}
		}
		if err := s.Quiescent(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		s.Close()
	}
}

// TestNestedTraceReadViewWriteTraps pins where a write through a read-only
// view is charged, on both engines: a read-only lookup of an Add in the
// outer trace is served that trace's zero block, and the program writes
// through it.  A nested trace is lent a block of its own, which reads 0,
// and begins and ends cleanly.  The outer EndTrace then fails with
// core.ErrReadViewWritten, drops the outer trace's views (the nested
// trace's write merged into them included), and restores the enclosing
// trace; the next trace is lent a clean block, and the engine is
// quiescent.
func TestNestedTraceReadViewWriteTraps(t *testing.T) {
	for name, eng := range map[string]core.Engine{
		"mm":       core.NewMM(core.MMConfig{Workers: 1}),
		"hypermap": hypermap.New(hypermap.Config{Workers: 1}),
	} {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(1, eng)
			defer s.Close()
			r, _ := eng.Register(arenaSumMonoid)
			kept, _ := eng.Register(arenaSumMonoid)
			if err := s.RunErr(func(c *sched.Context) {
				w := c.Worker()
				*core.Lookup(eng, c, kept).(*int64) += 2
				outer := eng.BeginTrace(w)
				word, _ := eng.LookupWord(c, r, 0, false)
				*(*int64)(word) = 7
				inner := eng.BeginTrace(w)
				innerWord, _ := eng.LookupWord(c, r, 0, false)
				if innerWord == word {
					t.Error("the nested trace was lent the outer trace's zero block")
				}
				if got := *(*int64)(innerWord); got != 0 {
					t.Errorf("nested read-only lookup = %d, want 0", got)
				}
				*core.Lookup(eng, c, kept).(*int64) += 10
				eng.Merge(w, w.CurrentTrace(), eng.EndTrace(w, inner))
				if err := endTracePanic(eng, w, outer); !errors.Is(err, core.ErrReadViewWritten) {
					t.Errorf("outer EndTrace failed with %v, want %v", err, core.ErrReadViewWritten)
				}
				if got := *core.Lookup(eng, c, kept).(*int64); got != 2 {
					t.Errorf("enclosing trace's view = %d after the failed EndTrace, want 2", got)
				}
				next := eng.BeginTrace(w)
				if word, _ := eng.LookupWord(c, r, 0, false); *(*int64)(word) != 0 {
					t.Errorf("next trace's read-only lookup = %d, want 0", *(*int64)(word))
				}
				eng.Merge(w, w.CurrentTrace(), eng.EndTrace(w, next))
			}); err != nil {
				t.Fatalf("RunErr: %v", err)
			}
			if got := *kept.Value().(*int64); got != 2 {
				t.Errorf("kept = %d, want 2", got)
			}
			if got := *r.Value().(*int64); got != 0 {
				t.Errorf("written-through reducer = %d, want 0", got)
			}
			if err := s.Quiescent(); err != nil {
				t.Errorf("not quiescent: %v", err)
			}
		})
	}
}

// endTracePanic ends tr and returns the error its EndTrace panicked with.
func endTracePanic(eng core.Engine, w *sched.Worker, tr sched.Trace) (err error) {
	defer func() { err, _ = recover().(error) }()
	eng.EndTrace(w, tr)
	return nil
}
