package core_test

import (
	"errors"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
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

// endTracePanic ends tr and returns the error its EndTrace panicked with.
func endTracePanic(eng *core.MM, w *sched.Worker, tr sched.Trace) (err error) {
	defer func() { err, _ = recover().(error) }()
	eng.EndTrace(w, tr)
	return nil
}
