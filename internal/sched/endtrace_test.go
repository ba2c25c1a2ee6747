package sched

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
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

// failingEnds is a mechanism whose failAt-th EndTrace panics, having ended
// its trace first as a failed view transferal does (ReducerRuntime.EndTrace),
// and whose Quiescent reports a trace that was not ended exactly once.
type failingEnds struct {
	nopReducerRuntime
	begins, ends atomic.Int64
	failAt       int64
}

var errTransfer = errors.New("failingEnds: view transferal failed")

func (r *failingEnds) BeginTrace(*Worker) Trace {
	r.begins.Add(1)
	return nil
}

func (r *failingEnds) EndTrace(*Worker, Trace) Deposit {
	if r.ends.Add(1) == r.failAt {
		panic(errTransfer)
	}
	return nil
}

func (r *failingEnds) Quiescent() error {
	if b, e := r.begins.Load(), r.ends.Load(); b != e {
		return fmt.Errorf("%d traces begun, %d ended", b, e)
	}
	return nil
}

// TestEndTracePanicEndsTraceOnce fails one view transferal among a few
// jobs' — a root's, or a stolen continuation's when forks are forced to be
// stolen — and checks that the scheduler ends every trace it begins
// exactly once: the failed EndTrace has ended its trace, so the abort path
// must not end it again.  The failure is reported by its job alone, and the
// runtime is quiescent and keeps running jobs.
func TestEndTracePanicEndsTraceOnce(t *testing.T) {
	const jobs = 4
	for _, seed := range chaosSeeds(t) {
		red := &failingEnds{failAt: 1 + int64(seed%jobs)}
		rt := New(Config{Workers: 2, Seed: seed, Reducers: red})
		failed := 0
		for i := 0; i < jobs; i++ {
			err := rt.RunErr(func(c *Context) {
				c.ParallelForGrain(0, 16, 1, func(*Context, int) {})
			})
			if err != nil {
				failed++
				if !errors.Is(err, errTransfer) {
					t.Errorf("seed %d job %d: RunErr = %v, want %v", seed, i, err, errTransfer)
				}
			}
			if err := rt.Quiescent(); err != nil {
				t.Errorf("seed %d job %d: %v", seed, i, err)
			}
		}
		if failed != 1 {
			t.Errorf("seed %d: %d of %d jobs failed, want 1 (the %dth EndTrace of %d)",
				seed, failed, jobs, red.failAt, red.ends.Load())
		}
		rt.Close()
	}
}

// TestForcedStealsEndEachTraceOnce is TestEndTracePanicEndsTraceOnce with
// every fork's continuation run as a stolen task, so the failing transferal
// is a continuation's, its failure crosses a join, and the trace that
// re-raises it is ended by the abort path.
func TestForcedStealsEndEachTraceOnce(t *testing.T) {
	plan := faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 1})
	defer faultinject.Activate(plan)()
	TestEndTracePanicEndsTraceOnce(t)
	if plan.Fires(faultinject.SchedForceSteal) == 0 {
		t.Error("no fork was forced")
	}
}
