package sched

import (
	"sync"
	"testing"
	"time"
)

// orderReducers is a minimal ReducerRuntime over the noncommutative monoid
// of byte-sequence concatenation.  Each trace accumulates the values
// appended while it ran; EndTrace deposits the sequence; Merge concatenates
// a deposit after the current trace's sequence; MergeRootDeposit files a
// root's sequence under its first value for the test to read back (root).
// Because concatenation is not commutative, a root's sequence equals the
// serial sequence only if the scheduler begins/ends/merges traces in
// exactly the right order — including while traces nest arbitrarily deep
// during waitJoin helping.
type orderReducers struct {
	mu    sync.Mutex
	roots map[int][]byte
}

func newOrderReducers() *orderReducers { return &orderReducers{roots: map[int][]byte{}} }

type orderLocal struct {
	// stack holds one byte sequence per nested trace; the top is the
	// trace the worker is currently executing.
	stack [][]byte
}

func (*orderReducers) WorkerInit(w *Worker) { w.SetLocal(&orderLocal{}) }

func (*orderReducers) BeginTrace(w *Worker) Trace {
	l := w.Local().(*orderLocal)
	l.stack = append(l.stack, nil)
	return len(l.stack)
}

func (*orderReducers) EndTrace(w *Worker, tr Trace) Deposit {
	l := w.Local().(*orderLocal)
	if want, ok := tr.(int); !ok || want != len(l.stack) {
		panic("orderReducers: unbalanced trace nesting")
	}
	d := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	return d
}

func (*orderReducers) Merge(w *Worker, tr Trace, dep Deposit) {
	d, _ := dep.([]byte)
	if len(d) == 0 {
		return
	}
	l := w.Local().(*orderLocal)
	top := len(l.stack) - 1
	l.stack[top] = append(l.stack[top], d...)
}

func (*orderReducers) Discard(*Worker, Deposit) {}

func (o *orderReducers) MergeRootDeposit(dep Deposit) {
	d, _ := dep.([]byte)
	first := -1
	if len(d) >= 2 {
		first = int(d[0])<<8 | int(d[1])
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.roots[first] = d
}

func (*orderReducers) Quiescent() error { return nil }

// root returns, and forgets, the root sequence merged with first as its
// first value; nil if there is none.
func (o *orderReducers) root(first int) []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	d := o.roots[first]
	delete(o.roots, first)
	return d
}

// orderAppend records v in the current trace of the executing worker.
func orderAppend(c *Context, v int) {
	l := c.Worker().Local().(*orderLocal)
	top := len(l.stack) - 1
	l.stack[top] = append(l.stack[top], byte(v>>8), byte(v))
}

// TestTraceNestingUnderStealStorm forces a steal storm with deeply nested
// waitJoin helping (many fine-grained sleepy iterations across several
// workers, so stolen continuations stall at joins and the stalled workers
// help with further stolen work) and asserts that the reducer result for a
// noncommutative monoid still equals the serial execution exactly.
func TestTraceNestingUnderStealStorm(t *testing.T) {
	const n = 400
	red := newOrderReducers()
	rt := New(Config{Workers: 4, Reducers: red})
	defer rt.Close()
	err := rt.Run(func(c *Context) {
		c.ParallelForGrain(0, n, 1, func(c *Context, i int) {
			// Yield the single underlying CPU so parked workers run and
			// steal, creating stalled joins up the fork tree.
			time.Sleep(50 * time.Microsecond)
			orderAppend(c, i)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := rt.Stats()
	if st.Steals == 0 {
		t.Fatalf("test did not force any steals; stats %+v", st)
	}
	if st.StalledJoins == 0 {
		t.Fatalf("test did not stall any joins; stats %+v", st)
	}
	got := red.root(0)
	if len(got) != 2*n {
		t.Fatalf("deposit has %d bytes, want %d (stats %+v)", len(got), 2*n, st)
	}
	for i := 0; i < n; i++ {
		v := int(got[2*i])<<8 | int(got[2*i+1])
		if v != i {
			t.Fatalf("position %d holds %d, want %d — reducer order diverged "+
				"from serial execution (steals=%d stalled=%d helped=%d)",
				i, v, i, st.Steals, st.StalledJoins, st.HelpedTasks)
		}
	}
	if testing.Verbose() {
		t.Logf("steals=%d stalledJoins=%d helped=%d maxDeque=%d",
			st.Steals, st.StalledJoins, st.HelpedTasks, st.MaxDequeDepth)
	}
}

// TestTraceNestingDeepHelp builds an unbalanced fork tree whose left spine
// sleeps at every level, so thieves take the right continuations and the
// owner stalls at a chain of joins, helping with stolen grandchildren —
// the deepest nesting the runtime produces.  The concatenation result must
// still be serial.
func TestTraceNestingDeepHelp(t *testing.T) {
	const depth = 64
	red := newOrderReducers()
	rt := New(Config{Workers: 4, Reducers: red})
	defer rt.Close()
	var spine func(c *Context, level int)
	spine = func(c *Context, level int) {
		if level == depth {
			return
		}
		c.Fork(
			func(c *Context) {
				time.Sleep(20 * time.Microsecond)
				orderAppend(c, 2*level)
			},
			func(c *Context) {
				orderAppend(c, 2*level+1)
				spine(c, level+1)
			},
		)
	}
	if err := rt.Run(func(c *Context) { spine(c, 0) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := red.root(0)
	if len(got) != 2*2*depth {
		t.Fatalf("deposit has %d bytes, want %d", len(got), 2*2*depth)
	}
	for i := 0; i < 2*depth; i++ {
		v := int(got[2*i])<<8 | int(got[2*i+1])
		if v != i {
			st := rt.Stats()
			t.Fatalf("position %d holds %d, want %d (stats %+v)", i, v, i, st)
		}
	}
}
