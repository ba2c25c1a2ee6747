package bench

import (
	"testing"

	"repro/internal/faultinject"
)

// TestUnderForcedSteals reruns the trace-cycle ordering with the forced-steal
// failpoint armed.  The cycle drives its traces by hand and forks nothing,
// so what this pins is that an armed plan costs the hand-driven path
// nothing the ordering can see; the parallel Figure 5 sweep beside it forks
// and is forced at every one.
func TestUnderForcedSteals(t *testing.T) {
	plan := faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 1})
	defer faultinject.Activate(plan)()
	t.Run("TraceCycleOrdering", TestTraceCycleOrdering)
	t.Run("Fig5Parallel", TestFig5Parallel)
	if plan.Fires(faultinject.SchedForceSteal) == 0 {
		t.Error("no fork was forced")
	}
}
