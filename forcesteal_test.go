package cilkm_test

import (
	"testing"

	"repro/internal/faultinject"
)

// everyForkForced is the plan under which every fork's continuation runs as
// a stolen task.
func everyForkForced() *faultinject.Plan {
	return faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 1})
}

// TestUnderForcedSteals reruns the suites that pin reducer semantics with
// the forced-steal failpoint armed (faultinject.SchedForceSteal, Cilk's
// force_reduce): a fork that fires runs its continuation as a stolen task on
// the forking worker, so view creation, transferal and the hypermerge happen
// at that fork whatever the host's CPUs and the wake gate let real thieves
// do.  Tests that arm no failpoint of their own run with every fork forced;
// the ones that do get forced steals on half the forks beside their fault.
func TestUnderForcedSteals(t *testing.T) {
	t.Run("every-fork", func(t *testing.T) {
		plan := everyForkForced()
		defer faultinject.Activate(plan)()
		t.Run("PropertyMechanismsMatchSerialOnRandomTrees", TestPropertyMechanismsMatchSerialOnRandomTrees)
		t.Run("MechanismsAgreeOnAggregates", TestMechanismsAgreeOnAggregates)
		t.Run("ReadOnlyAccessesPreserveEquivalence", TestReadOnlyAccessesPreserveEquivalence)
		t.Run("FastPathInvalidationOnMidRunUnregister", TestFastPathInvalidationOnMidRunUnregister)
		t.Run("RetiredHandleNeverReachesSuccessor", TestRetiredHandleNeverReachesSuccessor)
		t.Run("FastPathInvalidationOnHypermerge", TestFastPathInvalidationOnHypermerge)
		t.Run("RunContextCancelSettles", TestRunContextCancelSettles)
		t.Run("ConcurrentRunCallersMatchSerial", TestConcurrentRunCallersMatchSerial)
		if plan.Fires(faultinject.SchedForceSteal) == 0 {
			t.Error("no fork was forced")
		}
	})
	t.Run("beside-faults", func(t *testing.T) {
		alsoForceSteals = true
		defer func() { alsoForceSteals = false }()
		t.Run("ChaosSweep", TestChaosSweep)
		t.Run("ChaosServiceSweep", TestChaosServiceSweep)
		t.Run("ReducePanicConservesResources", TestReducePanicConservesResources)
	})
}
