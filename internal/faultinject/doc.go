// Package faultinject is the runtime's failpoint and deterministic-chaos
// framework.  Named failpoints are compiled into every layer that can fail
// mid-job — steal/park decision points in the scheduler, pagepool
// exhaustion, the modelled TLMM region's growth, directory registration
// races, and monoid Reduce/Identity panics inside the merge pipeline — and
// cost one atomic load and a predicted branch while no plan is active, so
// they stay in production builds.
//
// A chaos run activates a Plan: a seed plus a set of armed rules, one per
// failpoint.  Whether a particular hit of a failpoint fires is a pure
// function of (plan seed, failpoint id, hit ordinal), so a failing schedule
// reproduces from its seed: the same code path performing the same sequence
// of failpoint hits observes the same sequence of decisions.  (Goroutine
// interleaving itself is not replayed — what the seed pins down is which
// hits inject, which is what makes a rare interleaving reproducible enough
// to shrink.)
//
// Three injection shapes cover the layers above:
//
//   - Error(id) returns an *Fault (wrapping ErrInjected) when the hit
//     fires: used where the surrounding code already has an error path
//     (TLMM growth, pagepool exhaustion).
//   - Check(id) panics with an *Fault: used where failure arrives as a
//     panic (a monoid's Identity or Reduce blowing up mid-merge).
//   - Perturb(id) calls runtime.Gosched() when the hit fires: used at
//     scheduling decision points (steal sweeps, pre-park) to
//     shake out rare interleavings without changing any result.
//
// The active plan's per-site hit and fire counters are exported through
// SampleMetrics (wrap it in metrics.SourceFunc), so a chaos run can be
// watched on the same scrape endpoint as the rest of the runtime.
package faultinject
