package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// orderDeposit decodes an orderReducers root sequence.
func orderDeposit(b []byte) []int {
	out := make([]int, len(b)/2)
	for i := range out {
		out[i] = int(b[2*i])<<8 | int(b[2*i+1])
	}
	return out
}

// TestCallerRunsIdentityAndOrder checks what a runtime promises the callers
// of Run: the root runs on the calling goroutine as worker 0 — with no pool
// at all when there is one worker — every WorkerID stays in [0, Workers),
// and the noncommutative deposit is the serial sequence.
func TestCallerRunsIdentityAndOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		red := newOrderReducers()
		rt := New(Config{Workers: workers, Reducers: red})
		if got := rt.Workers(); got != workers {
			t.Fatalf("Workers() = %d, want %d", got, workers)
		}
		const n = 200
		rootID := -1
		var mu sync.Mutex
		seen := map[int]bool{}
		err := rt.Run(func(c *Context) {
			rootID = c.WorkerID()
			c.ParallelForGrain(0, n, 1, func(c *Context, i int) {
				if i%16 == 0 {
					time.Sleep(20 * time.Microsecond)
				}
				mu.Lock()
				seen[c.WorkerID()] = true
				mu.Unlock()
				orderAppend(c, i)
			})
		})
		if err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		if rootID != 0 {
			t.Errorf("workers=%d: root ran as worker %d, want the caller's identity 0", workers, rootID)
		}
		for id := range seen {
			if id < 0 || id >= workers {
				t.Errorf("workers=%d: leaf ran with WorkerID %d", workers, id)
			}
		}
		for i, v := range orderDeposit(red.root(0)) {
			if v != i {
				t.Fatalf("workers=%d: position %d holds %d: order diverged from serial", workers, i, v)
			}
		}
		if st := rt.Stats(); st.RootTasks != 1 || st.Forks != n-1 {
			t.Errorf("workers=%d: stats %+v, want 1 root task and %d forks", workers, st, n-1)
		}
		if err := rt.Quiescent(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		rt.Close()
		if err := rt.Run(func(*Context) {}); err != ErrClosed {
			t.Errorf("workers=%d: Run after Close = %v, want ErrClosed", workers, err)
		}
	}
}

// TestCallerRunsConcurrentCallers puts several callers on a runtime that has
// one identity to lend: they take turns for worker 0, and every one of them
// must get its own serial sequence back.  Close then races the last of them,
// as TestCloseRacingRun does with callers that fork less.
func TestCallerRunsConcurrentCallers(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		red := newOrderReducers()
		rt := New(Config{Workers: workers, Reducers: red})
		const callers, rounds, n = 5, 30, 64
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					err := rt.Run(func(c *Context) {
						c.ParallelForGrain(0, n, 1, func(c *Context, i int) {
							if (i+g+r)%32 == 0 {
								time.Sleep(time.Microsecond)
							}
							orderAppend(c, g*n+i)
						})
					})
					if err == ErrClosed {
						return
					}
					if err != nil {
						t.Errorf("workers=%d caller %d: Run: %v", workers, g, err)
						return
					}
					got := orderDeposit(red.root(g * n))
					if len(got) != n {
						t.Errorf("workers=%d caller %d: deposit of %d values, want %d", workers, g, len(got), n)
						return
					}
					for i, v := range got {
						if v != g*n+i {
							t.Errorf("workers=%d caller %d: position %d holds %d, want %d", workers, g, i, v, g*n+i)
							return
						}
					}
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		rt.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: callers hung across Close", workers)
		}
		if err := rt.Quiescent(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// TestCallerRunsPanicAndCancel fails a job on the caller's own goroutine
// both ways it can fail there.  The panic begins below Run's frame: it must
// be wrapped, everything the root pushed settled and the trace ended before
// Run re-raises it (or RunErr returns it), so that a caller who recovers
// holds a quiescent runtime.  A cancelled context cannot be selected on by
// a caller that is busy running the job; the job must still see it.
func TestCallerRunsPanicAndCancel(t *testing.T) {
	for _, workers := range []int{1, 2} {
		hooks := &recordingReducers{}
		rt := New(Config{Workers: workers, Reducers: hooks})

		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok || pe.Value != "boom" || len(pe.Stack) == 0 {
					t.Errorf("workers=%d: Run re-raised %v, want a *PanicError for \"boom\" with a stack", workers, pe)
				}
				if err := rt.Quiescent(); err != nil {
					t.Errorf("workers=%d: in the caller's recover: %v", workers, err)
				}
			}()
			_ = rt.Run(func(c *Context) {
				c.Fork(func(*Context) { panic("boom") }, func(*Context) {})
			})
		}()
		var pe *PanicError
		if err := rt.RunErr(func(*Context) { panic("again") }); !errors.As(err, &pe) || pe.Value != "again" {
			t.Errorf("workers=%d: RunErr = %v, want a *PanicError for \"again\"", workers, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		leaves := 0
		err := rt.RunContext(ctx, func(c *Context) {
			c.ParallelForGrain(0, 1<<20, 1, func(c *Context, i int) {
				if c.WorkerID() == 0 {
					if leaves++; leaves == 100 {
						cancel()
						for !c.Cancelled() {
							time.Sleep(10 * time.Microsecond) // the flag is set from the context's goroutine
						}
					}
				}
			})
		})
		if err != context.Canceled {
			t.Errorf("workers=%d: RunContext = %v, want context.Canceled", workers, err)
		}
		if err := rt.RunContext(ctx, func(*Context) { t.Error("job ran under a dead context") }); err != context.Canceled {
			t.Errorf("workers=%d: RunContext on a dead context = %v", workers, err)
		}

		if err := rt.Quiescent(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if b, e := hooks.begins.Load(), hooks.ends.Load(); b != e {
			t.Errorf("workers=%d: %d traces begun, %d ended", workers, b, e)
		}
		if err := rt.Run(func(c *Context) { c.Fork(func(*Context) {}, func(*Context) {}) }); err != nil {
			t.Errorf("workers=%d: runtime unusable after the failures: %v", workers, err)
		}
		rt.Close()
	}
}
