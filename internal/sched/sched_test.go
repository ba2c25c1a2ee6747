package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesRoot(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	ran := false
	if err := rt.Run(func(c *Context) { ran = true }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("root function did not run")
	}
	st := rt.Stats()
	if st.RootTasks != 1 {
		t.Fatalf("RootTasks = %d, want 1", st.RootTasks)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	rt := New(Config{})
	defer rt.Close()
	if rt.Workers() < 1 {
		t.Fatalf("Workers = %d, want >= 1", rt.Workers())
	}
	if rt.Reducers() != nil {
		t.Fatal("Reducers should be nil when not configured")
	}
}

func TestRunAfterCloseFails(t *testing.T) {
	rt := New(Config{Workers: 1})
	rt.Close()
	rt.Close() // idempotent
	if err := rt.Run(func(*Context) {}); err != ErrClosed {
		t.Fatalf("Run after Close: got %v, want ErrClosed", err)
	}
}

func TestForkSerialOrderOnSingleWorker(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	var order []int
	err := rt.Run(func(c *Context) {
		order = append(order, 0)
		c.Fork(
			func(c *Context) {
				order = append(order, 1)
				c.Fork(
					func(c *Context) { order = append(order, 2) },
					func(c *Context) { order = append(order, 3) },
				)
			},
			func(c *Context) { order = append(order, 4) },
		)
		order = append(order, 5)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	st := rt.Stats()
	if st.Steals != 0 {
		t.Fatalf("single-worker run performed %d steals", st.Steals)
	}
	if st.Forks != 2 {
		t.Fatalf("Forks = %d, want 2", st.Forks)
	}
}

func TestForkNSerialOrder(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	var order []int
	err := rt.Run(func(c *Context) {
		c.ForkN(
			func(*Context) { order = append(order, 0) },
			func(*Context) { order = append(order, 1) },
			func(*Context) { order = append(order, 2) },
			func(*Context) { order = append(order, 3) },
		)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("ran %d branches, want 4", len(order))
	}
	// Degenerate arities.
	if err := rt.Run(func(c *Context) {
		c.ForkN()
		c.ForkN(func(*Context) { order = append(order, 99) })
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if order[len(order)-1] != 99 {
		t.Fatal("single-branch ForkN did not run its branch")
	}
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	const n = 10000
	counts := make([]int32, n)
	err := rt.Run(func(c *Context) {
		c.ParallelFor(0, n, func(_ *Context, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range counts {
		if v != 1 {
			t.Fatalf("index %d executed %d times", i, v)
		}
	}
}

func TestParallelForGrainAndEmptyRanges(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	var count atomic.Int64
	err := rt.Run(func(c *Context) {
		c.ParallelFor(5, 5, func(*Context, int) { count.Add(1) })
		c.ParallelFor(7, 3, func(*Context, int) { count.Add(1) })
		c.ParallelForGrain(0, 100, 0, func(*Context, int) { count.Add(1) })
		c.ParallelForGrain(0, 64, 1000, func(*Context, int) { count.Add(1) })
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count.Load() != 164 {
		t.Fatalf("executed %d iterations, want 164", count.Load())
	}
}

func TestWorkIsDistributedAcrossWorkers(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	var mu sync.Mutex
	workersSeen := make(map[int]int)
	err := rt.Run(func(c *Context) {
		c.ParallelForGrain(0, 500, 1, func(c *Context, i int) {
			// Sleeping yields the processor so that, even on a single-CPU
			// host, parked workers get scheduled and steal.
			time.Sleep(200 * time.Microsecond)
			mu.Lock()
			workersSeen[c.Worker().ID()]++
			mu.Unlock()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := rt.Stats()
	if st.Steals == 0 {
		t.Fatalf("expected steals on a 4-worker run, stats %+v", st)
	}
	total := 0
	for _, n := range workersSeen {
		total += n
	}
	if total != 500 {
		t.Fatalf("iterations executed %d, want 500", total)
	}
}

func TestRootPanicPropagatesToRunCaller(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate out of Run")
		}
	}()
	_ = rt.Run(func(c *Context) {
		panic("boom")
	})
}

func TestRuntimeUsableAfterRootPanic(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	func() {
		defer func() { _ = recover() }()
		_ = rt.Run(func(*Context) { panic("first") })
	}()
	ran := false
	if err := rt.Run(func(*Context) { ran = true }); err != nil {
		t.Fatalf("Run after panic: %v", err)
	}
	if !ran {
		t.Fatal("runtime unusable after a root panic")
	}
}

func TestNestedParallelism(t *testing.T) {
	rt := New(Config{Workers: 3})
	defer rt.Close()
	var total atomic.Int64
	err := rt.Run(func(c *Context) {
		c.ParallelForGrain(0, 32, 1, func(c *Context, i int) {
			c.ParallelForGrain(0, 32, 1, func(_ *Context, j int) {
				total.Add(1)
			})
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if total.Load() != 32*32 {
		t.Fatalf("total = %d, want %d", total.Load(), 32*32)
	}
}

func TestConcurrentRuns(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = rt.Run(func(c *Context) {
				c.ParallelFor(0, 1000, func(*Context, int) { total.Add(1) })
			})
		}()
	}
	wg.Wait()
	if total.Load() != 8000 {
		t.Fatalf("total = %d, want 8000", total.Load())
	}
}

func TestStatsResetAndDequeHighWater(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	_ = rt.Run(func(c *Context) {
		c.ParallelForGrain(0, 256, 1, func(*Context, int) {})
	})
	st := rt.Stats()
	if st.Forks == 0 || st.MaxDequeDepth == 0 || st.ParallelForSpl == 0 {
		t.Fatalf("expected non-zero fork stats, got %+v", st)
	}
	rt.ResetStats()
	st = rt.Stats()
	if st.Forks != 0 || st.Steals != 0 || st.MaxDequeDepth != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

// recordingReducers verifies that the scheduler invokes the reducer hooks
// at the right moments: a trace per root/stolen task, one deposit per trace
// end, a merge per stolen continuation and a root merge per root.
type recordingReducers struct {
	inits  atomic.Int64
	begins atomic.Int64
	ends   atomic.Int64
	merges atomic.Int64
	roots  atomic.Int64
}

type recordingTrace struct{ id int64 }
type recordingDeposit struct{ id int64 }

func (r *recordingReducers) WorkerInit(w *Worker) {
	r.inits.Add(1)
	w.SetLocal(r)
}
func (r *recordingReducers) BeginTrace(w *Worker) Trace {
	return &recordingTrace{id: r.begins.Add(1)}
}
func (r *recordingReducers) EndTrace(w *Worker, tr Trace) Deposit {
	if _, ok := tr.(*recordingTrace); !ok {
		panic("EndTrace received a foreign trace")
	}
	return &recordingDeposit{id: r.ends.Add(1)}
}
func (r *recordingReducers) Discard(*Worker, Deposit) {}
func (r *recordingReducers) Merge(w *Worker, tr Trace, d Deposit) {
	if d == nil {
		return
	}
	if _, ok := d.(*recordingDeposit); !ok {
		panic("Merge received a foreign deposit")
	}
	r.merges.Add(1)
}
func (r *recordingReducers) MergeRootDeposit(d Deposit) {
	if _, ok := d.(*recordingDeposit); !ok {
		panic("MergeRootDeposit received a foreign deposit")
	}
	r.roots.Add(1)
}
func (r *recordingReducers) Quiescent() error { return nil }

// leakyReducers is the nop mechanism with a leak to report.
type leakyReducers struct{ nopReducerRuntime }

var errLeak = errors.New("leakyReducers: a view block is still live")

func (leakyReducers) Quiescent() error { return errLeak }

// TestQuiescentAsksTheMechanism checks that both quiescence verdicts end
// with the reducer mechanism's own leak check: Runtime.Quiescent between
// Runs, and Service.Close after the drain.
func TestQuiescentAsksTheMechanism(t *testing.T) {
	rt := New(Config{Workers: 2, Reducers: leakyReducers{}})
	defer rt.Close()
	if err := rt.Run(func(c *Context) { c.Fork(func(*Context) {}, func(*Context) {}) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rt.Quiescent(); !errors.Is(err, errLeak) {
		t.Errorf("Runtime.Quiescent = %v, want %v", err, errLeak)
	}
	s := NewService(Config{Workers: 2, Reducers: leakyReducers{}}, ServiceConfig{})
	h, err := s.Submit(context.Background(), JobSpec{Fn: func(*Context) {}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := s.Close(); !errors.Is(err, errLeak) {
		t.Errorf("Service.Close = %v, want %v", err, errLeak)
	}
}

func TestReducerHooksOnSerialRun(t *testing.T) {
	rec := &recordingReducers{}
	rt := New(Config{Workers: 1, Reducers: rec})
	defer rt.Close()
	if rt.Reducers() == nil {
		t.Fatal("Reducers() should return the configured mechanism")
	}
	err := rt.Run(func(c *Context) {
		c.ParallelForGrain(0, 64, 1, func(*Context, int) {})
		if c.Worker().Local() != any(rec) {
			t.Error("WorkerInit did not install local state")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := rec.inits.Load(); got != 1 {
		t.Fatalf("WorkerInit called %d times, want 1", got)
	}
	// A single-worker run steals nothing: exactly one trace (the root) and
	// no merges.
	if rec.begins.Load() != 1 || rec.ends.Load() != 1 {
		t.Fatalf("begin/end = %d/%d, want 1/1", rec.begins.Load(), rec.ends.Load())
	}
	if rec.merges.Load() != 0 {
		t.Fatalf("merges = %d, want 0 on a serial run", rec.merges.Load())
	}
}

func TestReducerHooksOnParallelRun(t *testing.T) {
	rec := &recordingReducers{}
	rt := New(Config{Workers: 4, Reducers: rec})
	defer rt.Close()
	err := rt.Run(func(c *Context) {
		c.ParallelForGrain(0, 2000, 1, func(*Context, int) {
			s := 0
			for k := 0; k < 100; k++ {
				s += k
			}
			_ = s
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := rt.Stats()
	begins, ends, merges := rec.begins.Load(), rec.ends.Load(), rec.merges.Load()
	if begins != ends {
		t.Fatalf("unbalanced traces: begins %d, ends %d", begins, ends)
	}
	// One trace per executed task (root + stolen/helped tasks).
	if begins != st.TasksExecuted {
		t.Fatalf("begins = %d, want TasksExecuted = %d", begins, st.TasksExecuted)
	}
	// Every stolen continuation is merged exactly once; the root deposit
	// goes to the root merge instead.
	if merges != st.TasksExecuted-st.RootTasks {
		t.Fatalf("merges = %d, want %d", merges, st.TasksExecuted-st.RootTasks)
	}
	if roots := rec.roots.Load(); roots != st.RootTasks {
		t.Fatalf("root merges = %d, want %d", roots, st.RootTasks)
	}
}

func TestStolenBranchPanicPropagates(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from stolen branch to propagate")
		}
	}()
	_ = rt.Run(func(c *Context) {
		c.ParallelForGrain(0, 512, 1, func(_ *Context, i int) {
			busy := 0
			for k := 0; k < 500; k++ {
				busy += k
			}
			_ = busy
			if i == 300 {
				panic("branch failure")
			}
		})
	})
}

func TestDequeOperations(t *testing.T) {
	var d deque
	t1 := &task{}
	t2 := &task{}
	t3 := &task{}
	if d.popBottom() != nil || d.stealTop() != nil || d.size() != 0 {
		t.Fatal("empty deque misbehaves")
	}
	d.pushBottom(t1)
	d.pushBottom(t2)
	d.pushBottom(t3)
	if d.size() != 3 {
		t.Fatalf("size = %d, want 3", d.size())
	}
	if got := d.stealTop(); got != t1 {
		t.Fatal("stealTop should return the oldest task")
	}
	if got := d.popBottom(); got != t3 {
		t.Fatal("popBottom should return the newest task")
	}
	if got := d.popBottom(); got != t2 {
		t.Fatal("popBottom should return the remaining task")
	}
	if d.size() != 0 {
		t.Fatalf("size = %d, want 0", d.size())
	}
}

func TestWorkerString(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	if rt.Worker(1).String() != "worker(1)" {
		t.Fatalf("String() = %q", rt.Worker(1).String())
	}
	if rt.Worker(0).ID() != 0 || rt.Worker(0).Runtime() != rt {
		t.Fatal("worker accessors broken")
	}
}

func TestForkLeftPanicReclaimsContinuation(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	var rightRuns atomic.Int64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic from left branch to propagate")
			}
		}()
		_ = rt.Run(func(c *Context) {
			c.Fork(
				func(*Context) { panic("left failure") },
				func(*Context) { rightRuns.Add(1) },
			)
		})
	}()
	// The continuation must not outlive the failed Run: whatever ran, ran
	// before Run returned; nothing may start afterwards.
	snapshot := rightRuns.Load()
	time.Sleep(20 * time.Millisecond)
	if got := rightRuns.Load(); got != snapshot {
		t.Fatalf("orphaned continuation executed after Run failed (%d -> %d)", snapshot, got)
	}
	if err := rt.Run(func(*Context) {}); err != nil {
		t.Fatalf("runtime unusable after left panic: %v", err)
	}
}
