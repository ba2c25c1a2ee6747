package reducers

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/sched"
)

// testSession builds a session for the given mechanism and worker count.
func testSession(t *testing.T, m Mechanism, workers int) *core.Session {
	t.Helper()
	s := NewSession(m, workers, EngineOptions{Timing: true})
	t.Cleanup(s.Close)
	return s
}

// forEachMechanism runs the test body once per reducer mechanism.
func forEachMechanism(t *testing.T, fn func(t *testing.T, m Mechanism)) {
	for _, m := range Mechanisms() {
		m := m
		t.Run(m.String(), func(t *testing.T) { fn(t, m) })
	}
}

func TestMechanismString(t *testing.T) {
	if MemoryMapped.String() != "memory-mapped" || Hypermap.String() != "hypermap" {
		t.Fatal("unexpected mechanism names")
	}
	if !strings.Contains(Mechanism(9).String(), "9") {
		t.Fatal("unknown mechanism should include its number")
	}
	if len(Mechanisms()) != 2 {
		t.Fatal("Mechanisms() should list both mechanisms")
	}
}

func TestEngineNames(t *testing.T) {
	mm := NewEngine(MemoryMapped, 2, EngineOptions{})
	hm := NewEngine(Hypermap, 2, EngineOptions{})
	if !strings.Contains(mm.Name(), "memory-mapped") {
		t.Fatalf("MM engine name %q", mm.Name())
	}
	if !strings.Contains(hm.Name(), "hypermap") {
		t.Fatalf("hypermap engine name %q", hm.Name())
	}
}

func TestAddSerialExecution(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 1)
		sum := NewAdd[int](s.Engine())
		const n = 100000
		if err := s.Run(func(c *sched.Context) {
			c.ParallelFor(0, n, func(c *sched.Context, i int) {
				sum.Add(c, i)
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		want := n * (n - 1) / 2
		if got := sum.Value(); got != want {
			t.Fatalf("sum = %d, want %d", got, want)
		}
	})
}

// TestAddParallelWithForcedSteals runs a parallel sum with the forced-steal
// failpoint armed on half the forks: view creation in the forced traces,
// transferal and a hypermerge at each of their joins, whatever the host's
// CPU count lets real thieves do.
func TestAddParallelWithForcedSteals(t *testing.T) {
	plan := faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 0.5})
	defer faultinject.Activate(plan)()
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 4)
		sum := NewAdd[int64](s.Engine())
		const n = 400
		if err := s.Run(func(c *sched.Context) {
			c.ParallelForGrain(0, n, 1, func(c *sched.Context, i int) {
				sum.Add(c, int64(i))
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if steals := s.Runtime().Stats().Steals; steals < n/4 {
			t.Fatalf("%d steals over %d forks with every other one forced", steals, n-1)
		}
		want := int64(n * (n - 1) / 2)
		if got := sum.Value(); got != want {
			t.Fatalf("sum = %d, want %d", got, want)
		}
		// Views must not linger in worker-private state between runs.
		if err := s.Quiescent(); err != nil {
			t.Fatal(err)
		}
		ovh := s.Engine().Overheads()
		if ovh.Count(0) < n/4 { // a view per forced trace that added, at least
			t.Fatalf("expected view creations under steals, got %s", ovh)
		}
	})
}

// TestUnderForcedSteals reruns the order-sensitive reducer tests with every
// fork's continuation executed as a stolen task.
func TestUnderForcedSteals(t *testing.T) {
	plan := faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 1})
	defer faultinject.Activate(plan)()
	t.Run("ListAppendMatchesSerialOrder", TestListAppendMatchesSerialOrder)
	t.Run("ListAppendTreeWalkOrder", TestListAppendTreeWalkOrder)
	t.Run("StringReducer", TestStringReducer)
	t.Run("MultipleReducersInOneRun", TestMultipleReducersInOneRun)
	t.Run("TypedHandleNoncommutativeEquivalence", TestTypedHandleNoncommutativeEquivalence)
	t.Run("TypedCacheInvalidationOnSlotReuse", TestTypedCacheInvalidationOnSlotReuse)
	if plan.Fires(faultinject.SchedForceSteal) == 0 {
		t.Error("no fork was forced")
	}
}

func TestAddAccumulatesAcrossRuns(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 2)
		sum := NewAdd[int](s.Engine())
		sum.SetValue(10)
		for run := 0; run < 3; run++ {
			if err := s.Run(func(c *sched.Context) {
				c.ParallelFor(0, 1000, func(c *sched.Context, i int) { sum.Add(c, 1) })
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		if got := sum.Value(); got != 10+3*1000 {
			t.Fatalf("sum = %d, want %d", got, 3010)
		}
	})
}

func TestListAppendMatchesSerialOrder(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 4)
		list := NewList[int](s.Engine())
		const n = 300
		if err := s.Run(func(c *sched.Context) {
			c.ParallelForGrain(0, n, 1, func(c *sched.Context, i int) {
				time.Sleep(50 * time.Microsecond)
				list.PushBack(c, i)
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if steals := s.Runtime().Stats().Steals; steals == 0 {
			t.Fatal("workload did not provoke any steals")
		}
		got := list.Value()
		if len(got) != n {
			t.Fatalf("list has %d elements, want %d", len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("list[%d] = %d; parallel append order differs from serial order", i, v)
			}
		}
	})
}

func TestListAppendTreeWalkOrder(t *testing.T) {
	// The paper's Figure 2: walk a binary tree, collecting nodes that
	// satisfy a property.  The reducer must produce the serial preorder
	// list regardless of steals.
	type node struct {
		id          int
		left, right *node
	}
	var build func(depth, id int) (*node, int)
	build = func(depth, id int) (*node, int) {
		if depth == 0 {
			return nil, id
		}
		n := &node{id: id}
		id++
		n.left, id = build(depth-1, id)
		n.right, id = build(depth-1, id)
		return n, id
	}
	root, total := build(9, 0) // 511 nodes
	var serial []int
	var serialWalk func(n *node)
	serialWalk = func(n *node) {
		if n == nil {
			return
		}
		if n.id%3 == 0 {
			serial = append(serial, n.id)
		}
		serialWalk(n.left)
		serialWalk(n.right)
	}
	serialWalk(root)
	_ = total

	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 4)
		list := NewList[int](s.Engine())
		var walk func(c *sched.Context, n *node)
		walk = func(c *sched.Context, n *node) {
			if n == nil {
				return
			}
			time.Sleep(10 * time.Microsecond)
			if n.id%3 == 0 {
				list.PushBack(c, n.id)
			}
			c.Fork(
				func(c *sched.Context) { walk(c, n.left) },
				func(c *sched.Context) { walk(c, n.right) },
			)
		}
		if err := s.Run(func(c *sched.Context) { walk(c, root) }); err != nil {
			t.Fatalf("Run: %v", err)
		}
		got := list.Value()
		if len(got) != len(serial) {
			t.Fatalf("collected %d nodes, want %d", len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("position %d: got %d, want %d (order differs from serial walk)", i, got[i], serial[i])
			}
		}
	})
}

func TestMinMaxReducers(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 4)
		mn := NewMin[int](s.Engine())
		mx := NewMax[int](s.Engine())
		if _, ok := mn.Value(); ok {
			t.Fatal("fresh Min reducer should be unset")
		}
		if _, ok := mx.Value(); ok {
			t.Fatal("fresh Max reducer should be unset")
		}
		values := make([]int, 5000)
		rng := uint64(12345)
		for i := range values {
			rng = rng*6364136223846793005 + 1442695040888963407
			values[i] = int(rng % 1000003)
		}
		wantMin, wantMax := values[0], values[0]
		for _, v := range values {
			if v < wantMin {
				wantMin = v
			}
			if v > wantMax {
				wantMax = v
			}
		}
		if err := s.Run(func(c *sched.Context) {
			c.ParallelFor(0, len(values), func(c *sched.Context, i int) {
				mn.Update(c, values[i])
				mx.Update(c, values[i])
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got, ok := mn.Value(); !ok || got != wantMin {
			t.Fatalf("min = %d/%v, want %d", got, ok, wantMin)
		}
		if got, ok := mx.Value(); !ok || got != wantMax {
			t.Fatalf("max = %d/%v, want %d", got, ok, wantMax)
		}
	})
}

func TestAndOrReducers(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 2)
		allEven := NewAnd(s.Engine())
		anyOdd := NewOr(s.Engine())
		if err := s.Run(func(c *sched.Context) {
			c.ParallelFor(0, 1000, func(c *sched.Context, i int) {
				allEven.Update(c, i%2 == 0)
				anyOdd.Update(c, i%2 == 1)
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if allEven.Value() {
			t.Fatal("And reducer should be false: not all values are even")
		}
		if !anyOdd.Value() {
			t.Fatal("Or reducer should be true: some values are odd")
		}
		allEven.Close()
		anyOdd.Close()
	})
}

func TestStringReducer(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 4)
		str := NewString(s.Engine())
		const n = 200
		want := strings.Builder{}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&want, "%d,", i)
		}
		if err := s.Run(func(c *sched.Context) {
			c.ParallelForGrain(0, n, 1, func(c *sched.Context, i int) {
				time.Sleep(20 * time.Microsecond)
				str.Append(c, fmt.Sprintf("%d,", i))
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := str.Value(); got != want.String() {
			t.Fatalf("concatenation differs from serial order:\ngot  %q\nwant %q", got, want.String())
		}
		str.Close()
	})
}

func TestMapOfReducer(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 4)
		hist := NewMapOf[int, int](s.Engine(), func(a, b int) int { return a + b })
		const n = 10000
		if err := s.Run(func(c *sched.Context) {
			c.ParallelFor(0, n, func(c *sched.Context, i int) {
				hist.Update(c, i%7, 1)
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		got := hist.Value()
		total := 0
		for k, v := range got {
			if k < 0 || k >= 7 {
				t.Fatalf("unexpected key %d", k)
			}
			total += v
		}
		if total != n {
			t.Fatalf("histogram total = %d, want %d", total, n)
		}
		hist.Close()
	})
}

func TestCustomReducer(t *testing.T) {
	type stats struct {
		count int
		sum   float64
	}
	mon := TypedFuncMonoid[stats]{
		IdentityFn: func() *stats { return &stats{} },
		ReduceFn: func(lv, rv *stats) *stats {
			lv.count += rv.count
			lv.sum += rv.sum
			return lv
		},
	}
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 2)
		cu := NewCustomOf[stats](s.Engine(), mon)
		if err := s.Run(func(c *sched.Context) {
			c.ParallelFor(0, 1000, func(c *sched.Context, i int) {
				v := cu.View(c)
				v.count++
				v.sum += float64(i)
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		got := cu.Value()
		if got.count != 1000 || got.sum != 999*1000/2 {
			t.Fatalf("stats = %+v", got)
		}
		if cu.Reducer() == nil {
			t.Fatal("Reducer() should expose the handle")
		}
		cu.Close()
	})
}

func TestSerialContextLookup(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		eng := NewEngine(m, 1, EngineOptions{})
		sum := NewAdd[int](eng)
		// With a nil context the reducer behaves like an ordinary variable.
		sum.Add(nil, 5)
		sum.Add(nil, 7)
		if got := sum.Value(); got != 12 {
			t.Fatalf("serial-context sum = %d, want 12", got)
		}
	})
}

func TestMultipleReducersInOneRun(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 4)
		const nReducers = 64
		sums := make([]*Add[int], nReducers)
		for i := range sums {
			sums[i] = NewAdd[int](s.Engine())
		}
		const n = 6400
		if err := s.Run(func(c *sched.Context) {
			c.ParallelFor(0, n, func(c *sched.Context, i int) {
				sums[i%nReducers].Add(c, 1)
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		for i, sr := range sums {
			if got := sr.Value(); got != n/nReducers {
				t.Fatalf("reducer %d = %d, want %d", i, got, n/nReducers)
			}
		}
	})
}

func TestCloseAndSlotReuse(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		// The directory's LIFO free list hands the recycled address to the
		// very next registration.
		s := NewSession(m, 2, EngineOptions{Timing: true})
		t.Cleanup(s.Close)
		a := NewAdd[int](s.Engine())
		addrA := a.Reducer().Addr()
		a.Add(nil, 3)
		a.Close()
		if !a.Reducer().Retired() {
			t.Fatal("reducer not marked retired after Close")
		}
		if got := a.Value(); got != 3 {
			t.Fatalf("value after Close = %d, want 3", got)
		}
		b := NewAdd[int](s.Engine())
		if b.Reducer().Addr() != addrA {
			t.Fatalf("slot %d not reused after Close (got %d)", addrA, b.Reducer().Addr())
		}
		if got := b.Value(); got != 0 {
			t.Fatalf("fresh reducer in reused slot has value %d, want 0", got)
		}
	})
}

func TestOverheadInstrumentation(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := NewSession(m, 4, EngineOptions{Timing: true})
		t.Cleanup(s.Close)
		eng := s.Engine()
		sum := NewAdd[int](eng)
		const n = 256
		if err := s.Run(func(c *sched.Context) {
			c.ParallelForGrain(0, n, 1, func(c *sched.Context, i int) {
				time.Sleep(20 * time.Microsecond)
				sum.Add(c, 1)
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		ovh := eng.Overheads()
		if ovh.Total() == 0 {
			t.Fatalf("expected non-zero timed overheads, got %s", ovh)
		}
		eng.ResetOverheads()
		if eng.Overheads().Total() != 0 || core.LookupCount(eng) != 0 {
			t.Fatal("ResetOverheads did not clear counters")
		}
	})
}

func TestValueVisibleInsideRunViaNilContext(t *testing.T) {
	// Reading Value() mid-run reflects only the leftmost view; this test
	// pins that behaviour (the paper's reducers have the same property).
	forEachMechanism(t, func(t *testing.T, m Mechanism) {
		s := testSession(t, m, 1)
		sum := NewAdd[int](s.Engine())
		sum.SetValue(100)
		if err := s.Run(func(c *sched.Context) {
			sum.Add(c, 1)
			if v := sum.Value(); v != 100 {
				t.Errorf("mid-run Value = %d, want 100 (leftmost view only)", v)
			}
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := sum.Value(); got != 101 {
			t.Fatalf("final value = %d, want 101", got)
		}
	})
}
