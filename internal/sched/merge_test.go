package sched

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestForkMergeTasksRunsAll checks that every closure of a fan-out runs
// exactly once, whether stolen or run inline, across repeated joins.
func TestForkMergeTasksRunsAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rt := New(Config{Workers: workers})
		err := func() error {
			defer rt.Close()
			return rt.RunAndMerge(func(c *Context) {
				w := c.Worker()
				for round := 0; round < 50; round++ {
					const n = 9
					var ran [n]atomic.Int64
					fns := make([]func(), n)
					for i := 0; i < n; i++ {
						i := i
						fns[i] = func() {
							time.Sleep(10 * time.Microsecond)
							ran[i].Add(1)
						}
					}
					w.ForkMergeTasks(fns)
					for i := range ran {
						if got := ran[i].Load(); got != 1 {
							t.Errorf("workers=%d round=%d fn %d ran %d times", workers, round, i, got)
						}
					}
				}
			})
		}()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestForkMergeTasksEmptyAndSingle covers the degenerate fan-outs.
func TestForkMergeTasksEmptyAndSingle(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	err := rt.RunAndMerge(func(c *Context) {
		w := c.Worker()
		w.ForkMergeTasks(nil)
		ran := false
		w.ForkMergeTasks([]func(){func() { ran = true }})
		if !ran {
			t.Error("single-closure fan-out did not run")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForkMergeTasksPanicPropagates checks that a panicking merge batch
// reaches the forking worker as a panic, and that the runtime survives to
// execute further work afterwards.
func TestForkMergeTasksPanicPropagates(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	panicked := ""
	func() {
		defer func() {
			if p := recover(); p != nil {
				pe, ok := p.(*PanicError)
				if !ok {
					t.Errorf("merge-task panic surfaced as %T, want *PanicError", p)
					panicked = "" // fail the Contains check below too
					return
				}
				if len(pe.Stack) == 0 {
					t.Error("contained panic lost its captured stack")
				}
				panicked, _ = pe.Value.(string)
			}
		}()
		_ = rt.RunAndMerge(func(c *Context) {
			c.Worker().ForkMergeTasks([]func(){
				func() {},
				func() { panic("boom") },
			})
		})
	}()
	if !strings.Contains(panicked, "boom") {
		t.Fatalf("merge-task panic not propagated: %q", panicked)
	}
	// The pool must still be usable.
	n := 0
	if err := rt.RunAndMerge(func(c *Context) { n = 1 }); err != nil || n != 1 {
		t.Fatalf("runtime unusable after merge-task panic: n=%d err=%v", n, err)
	}
}
