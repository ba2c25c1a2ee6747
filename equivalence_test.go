package cilkm_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	cilkm "repro"
	"repro/internal/faultinject"
	"repro/internal/reducers"
)

// opTree is a randomly generated fork structure used to check that both
// reducer mechanisms produce exactly the serial result for a
// non-commutative reduction, whatever the shape of the parallelism.
type opTree struct {
	label    int
	children []*opTree
}

// genTree builds a random tree with at most maxNodes nodes.
func genTree(rng *rand.Rand, maxNodes int) *opTree {
	counter := 0
	var build func(depth int) *opTree
	build = func(depth int) *opTree {
		counter++
		n := &opTree{label: counter}
		if depth >= 6 || counter >= maxNodes {
			return n
		}
		kids := rng.Intn(3)
		for i := 0; i < kids && counter < maxNodes; i++ {
			n.children = append(n.children, build(depth+1))
		}
		return n
	}
	return build(0)
}

// serialTrace produces the reference preorder label sequence.
func serialTrace(n *opTree, out *[]int) {
	if n == nil {
		return
	}
	*out = append(*out, n.label)
	for _, c := range n.children {
		serialTrace(c, out)
	}
}

// parallelTrace walks the tree with ForkN, appending to a list reducer.
func parallelTrace(c *cilkm.Context, list interface {
	PushBack(*cilkm.Context, int)
}, n *opTree, slow bool) {
	if n == nil {
		return
	}
	if slow {
		// A short sleep yields the processor so that steals occur even on
		// a single-CPU host, exercising view creation and hypermerges.
		time.Sleep(5 * time.Microsecond)
	}
	list.PushBack(c, n.label)
	branches := make([]func(*cilkm.Context), len(n.children))
	for i, child := range n.children {
		child := child
		branches[i] = func(c *cilkm.Context) { parallelTrace(c, list, child, slow) }
	}
	c.ForkN(branches...)
}

// TestPropertyMechanismsMatchSerialOnRandomTrees is the repository's
// end-to-end determinism property: for random fork trees, the list built by
// parallel execution equals the serial preorder under both mechanisms.
func TestPropertyMechanismsMatchSerialOnRandomTrees(t *testing.T) {
	sessions := map[cilkm.Mechanism]*cilkm.Session{
		cilkm.MemoryMapped: cilkm.New(cilkm.WithMechanism(cilkm.MemoryMapped), cilkm.WithWorkers(3)),
		cilkm.Hypermap:     cilkm.New(cilkm.WithMechanism(cilkm.Hypermap), cilkm.WithWorkers(3)),
	}
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()

	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := genTree(rng, 120)
		var want []int
		serialTrace(tree, &want)
		for mech, s := range sessions {
			list := cilkm.NewList[int](s.Engine())
			err := s.Run(func(c *cilkm.Context) {
				parallelTrace(c, list, tree, true)
			})
			if err != nil {
				t.Logf("%v: run failed: %v", mech, err)
				return false
			}
			got := list.Value()
			list.Close()
			if len(got) != len(want) {
				t.Logf("%v: length %d, want %d", mech, len(got), len(want))
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					t.Logf("%v: position %d: got %d, want %d", mech, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMechanismsAgreeOnAggregates cross-checks that both mechanisms compute
// identical sums, minima and maxima for the same deterministic workload.
func TestMechanismsAgreeOnAggregates(t *testing.T) {
	type answer struct {
		sum      int64
		min, max uint64
	}
	answers := make(map[cilkm.Mechanism]answer)
	const n = 50_000
	for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(4))
		sum := cilkm.NewAdd[int64](s.Engine())
		mn := cilkm.NewMin[uint64](s.Engine())
		mx := cilkm.NewMax[uint64](s.Engine())
		err := s.Run(func(c *cilkm.Context) {
			c.ParallelFor(0, n, func(c *cilkm.Context, i int) {
				v := uint64(i)*0x9E3779B97F4A7C15 + 7
				sum.Add(c, int64(v%1000))
				mn.Update(c, v)
				mx.Update(c, v)
			})
		})
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		a := answer{sum: sum.Value()}
		a.min, _ = mn.Value()
		a.max, _ = mx.Value()
		answers[mech] = a
		s.Close()
	}
	if answers[cilkm.MemoryMapped] != answers[cilkm.Hypermap] {
		t.Fatalf("mechanisms disagree: %+v vs %+v",
			answers[cilkm.MemoryMapped], answers[cilkm.Hypermap])
	}
	if fmt.Sprintf("%v", answers[cilkm.MemoryMapped]) == "" {
		t.Fatal("unreachable")
	}
}

// TestReadOnlyAccessesPreserveEquivalence mixes mutable updates with
// read-only ReadView accesses under steal-heavy execution on both
// mechanisms.  A read-only first access of an Add is lent its trace's zero
// block and creates no view; the test pins that this is semantically
// invisible — written reducers still reduce to the serial result and
// read-only reducers stay at the identity.
func TestReadOnlyAccessesPreserveEquivalence(t *testing.T) {
	const n = 4000
	for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(4))
		written := cilkm.NewAdd[int64](s.Engine())
		watched := cilkm.NewAdd[int64](s.Engine())
		peeks := cilkm.NewAdd[int64](s.Engine())
		err := s.Run(func(c *cilkm.Context) {
			c.ParallelForGrain(0, n, 8, func(c *cilkm.Context, i int) {
				if i%16 == 0 {
					time.Sleep(time.Microsecond) // widen the steal window
				}
				written.Add(c, 1)
				// Read-only peek at a reducer this trace never writes: the
				// trace's zero block, which no merge sees, and reading it
				// must always see the identity.
				if v := *watched.ReadView(c); v != 0 {
					t.Errorf("%v: ReadView observed %d, want identity 0", mech, v)
				}
				// Read-only peek at a reducer the same trace also writes:
				// must observe the trace-local running value, not identity.
				peeks.Add(c, 1)
				if v := *peeks.ReadView(c); v < 1 {
					t.Errorf("%v: ReadView after write observed %d", mech, v)
				}
			})
		})
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if got := written.Value(); got != n {
			t.Fatalf("%v: written = %d, want %d", mech, got, n)
		}
		if got := peeks.Value(); got != n {
			t.Fatalf("%v: peeks = %d, want %d", mech, got, n)
		}
		if got := watched.Value(); got != 0 {
			t.Fatalf("%v: read-only reducer = %d, want 0", mech, got)
		}
		s.Close()
	}
}

// TestFastPathInvalidationOnMidRunUnregister pins the lookup fast path's
// invalidation contract against the nastiest reuse scenario: a reducer is
// unregistered mid-run and its slot address is immediately recycled by a
// fresh registration.  The directory's LIFO free list makes the reuse
// deterministic.  The handle occupying the recycled address must read its
// own identity view — never the retired reducer's value — on both engines.
func TestFastPathInvalidationOnMidRunUnregister(t *testing.T) {
	const n = 1000
	for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(2))
		keep := cilkm.NewAdd[int64](s.Engine())
		var reused *reducers.Add[int64]
		err := s.Run(func(c *cilkm.Context) {
			doomed := cilkm.NewAdd[int64](s.Engine())
			doomed.Add(c, 41)
			keep.Add(c, 1)
			if got := *doomed.ReadView(c); got != 41 {
				t.Errorf("%v: doomed view = %d, want 41", mech, got)
			}
			addr := doomed.Reducer().Addr()
			doomed.Close()
			reused = cilkm.NewAdd[int64](s.Engine())
			if got := reused.Reducer().Addr(); got != addr {
				t.Fatalf("%v: recycled registration landed at %v, want reuse of %v",
					mech, got, addr)
			}
			// The recycled address must resolve to the new reducer's
			// identity, not the retired reducer's 41.
			if got := *reused.ReadView(c); got != 0 {
				t.Errorf("%v: reused slot's first read = %d, want identity 0", mech, got)
			}
			c.ParallelForGrain(0, n, 8, func(c *cilkm.Context, i int) {
				if i%64 == 0 {
					time.Sleep(time.Microsecond) // widen the steal window
				}
				reused.Add(c, 1)
				keep.Add(c, 1)
			})
		})
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if got := reused.Value(); got != n {
			t.Fatalf("%v: reused-slot reducer = %d, want %d", mech, got, n)
		}
		if got := keep.Value(); got != n+1 {
			t.Fatalf("%v: surviving reducer = %d, want %d", mech, got, n+1)
		}
		s.Close()
	}
}

// TestRetiredHandleNeverReachesSuccessor writes through a retired handle
// whose cache still points at its last private view, after a successor has
// taken the recycled address.  The successor's first lookup drops that view
// from the slot; on the memory-mapped engine the freed arena block goes
// straight to the successor's identity view.  The drop must retire the old
// handle's cache entry, so the write lands on the retired reducer's frozen
// leftmost value and the successor reads only its own update, on both
// engines.
func TestRetiredHandleNeverReachesSuccessor(t *testing.T) {
	for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(1))
		var successor *reducers.Add[int64]
		err := s.Run(func(c *cilkm.Context) {
			doomed := cilkm.NewAdd[int64](s.Engine())
			doomed.Add(c, 41)
			doomed.Close()
			successor = cilkm.NewAdd[int64](s.Engine())
			if got, want := successor.Reducer().Addr(), doomed.Reducer().Addr(); got != want {
				t.Fatalf("%v: successor landed at %v, want the recycled %v", mech, got, want)
			}
			successor.Add(c, 1)
			*doomed.View(c) += 100
			if got := *successor.ReadView(c); got != 1 {
				t.Errorf("%v: successor reads %d inside the run, want 1", mech, got)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if got := successor.Value(); got != 1 {
			t.Errorf("%v: successor = %d, want 1", mech, got)
		}
		s.Close()
	}
}

// TestFastPathInvalidationOnHypermerge reads a typed handle between
// hypermerges.  Every fork's continuation is forced to run as a stolen task
// (faultinject.SchedForceSteal), a trace of its own, so every join performs
// a real hypermerge that bumps the worker's view epoch; the handle's fast
// path must re-resolve after each bump and observe the running merged
// total — a stale cached view would report a stale count.
func TestFastPathInvalidationOnHypermerge(t *testing.T) {
	const rounds = 80
	if !faultinject.Enabled() { // TestUnderForcedSteals has armed it already
		defer faultinject.Activate(everyForkForced())()
	}
	for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(2))
		sum := cilkm.NewAdd[int64](s.Engine())
		err := s.Run(func(c *cilkm.Context) {
			start := c.ViewEpoch()
			for round := 1; round <= rounds; round++ {
				c.Fork(func(*cilkm.Context) {}, func(c *cilkm.Context) { sum.Add(c, 1) })
				// The continuation's trace deposited one written view and
				// the join merged it here, bumping the epoch; the fast path
				// must re-resolve and see every contribution so far.
				if got := *sum.ReadView(c); got != int64(round) {
					t.Fatalf("%v: after %d merges the fast path reads %d",
						mech, round, got)
				}
			}
			if end := c.ViewEpoch(); end-start < rounds {
				t.Errorf("%v: %d hypermerges bumped the view epoch %d times (%d -> %d)",
					mech, rounds, end-start, start, end)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if got := sum.Value(); got != rounds {
			t.Fatalf("%v: merged total = %d, want %d", mech, got, rounds)
		}
		s.Close()
	}
}
