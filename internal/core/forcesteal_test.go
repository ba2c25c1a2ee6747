package core_test

import (
	"testing"

	"repro/internal/faultinject"
)

// TestUnderForcedSteals reruns the merge and hand-off suites with every
// fork's continuation executed as a stolen task (faultinject.SchedForceSteal,
// Cilk's force_reduce), so the hypermerge decisions and the deposit walks
// they pin are reached through the scheduler's join as well as by hand, on
// any number of CPUs.
func TestUnderForcedSteals(t *testing.T) {
	plan := faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 1})
	defer faultinject.Activate(plan)()
	t.Run("MergeMatrixBothEngines", TestMergeMatrixBothEngines)
	t.Run("HandoffRepeatedLogIndex", TestHandoffRepeatedLogIndex)
	t.Run("HandoffNestedTracesConservePool", TestHandoffNestedTracesConservePool)
	t.Run("MergePreservesSerialOrder", TestMergePreservesSerialOrder)
	t.Run("UnregisterSlotRecyclingBothEngines", TestUnregisterSlotRecyclingBothEngines)
	t.Run("ConcurrentChurnManyTraces", TestConcurrentChurnManyTraces)
	if plan.Fires(faultinject.SchedForceSteal) == 0 {
		t.Error("no fork was forced")
	}
}
