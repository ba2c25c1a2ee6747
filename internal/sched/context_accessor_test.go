package sched

import (
	"testing"
	"unsafe"
)

// TestContextAccessorsMirrorWorker pins the two context-level accessors the
// typed lookup fast path leans on: WorkerID must equal the executing
// worker's ID on every context the runtime hands out (root and both fork
// branches, stolen or not), and ViewEpoch must track the worker's live
// epoch through bumps.
func TestContextAccessorsMirrorWorker(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	check := func(c *Context) {
		if got, want := c.WorkerID(), c.Worker().ID(); got != want {
			t.Errorf("WorkerID = %d, want %d", got, want)
		}
		if got, want := c.ViewEpoch(), c.Worker().ViewEpoch(); got != want {
			t.Errorf("ViewEpoch = %d, want %d", got, want)
		}
	}
	if err := rt.Run(func(c *Context) {
		check(c)
		c.Fork(check, check)

		before := c.ViewEpoch()
		c.Worker().BumpViewEpoch()
		if got := c.ViewEpoch(); got != before+1 {
			t.Errorf("ViewEpoch after a bump = %d, want %d", got, before+1)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestContextStaysTwoWords pins the context's size: one is allocated with
// every task, and it carries the worker and its id, nothing else.
func TestContextStaysTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Context{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Context{}) = %d, want 16", got)
	}
}
