package sched

import (
	"testing"
	"time"
	"unsafe"
)

// TestContextAccessorsMirrorWorker pins the two context-level accessors the
// typed lookup fast path leans on: WorkerID must equal the executing
// worker's ID on every context the runtime hands out (root and both fork
// branches, stolen or not), and ViewEpoch must track the worker's epoch
// through bumps.  The epoch starts at 1, so a handle cache slot never
// stamped (epoch 0) never matches, even where no mechanism bumps it.
func TestContextAccessorsMirrorWorker(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	check := func(c *Context) {
		if got, want := c.WorkerID(), c.Worker().ID(); got != want {
			t.Errorf("WorkerID = %d, want %d", got, want)
		}
	}
	if err := rt.Run(func(c *Context) {
		check(c)
		c.Fork(check, check)

		before := c.ViewEpoch()
		if before != 1 {
			t.Errorf("ViewEpoch with no reducer mechanism = %d, want 1", before)
		}
		c.Worker().BumpViewEpoch()
		if got := c.ViewEpoch(); got != before+1 {
			t.Errorf("ViewEpoch after a bump = %d, want %d", got, before+1)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestContextStaysTwoWords pins the context's size: each worker embeds one,
// and it carries the worker and its id, nothing else.
func TestContextStaysTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Context{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Context{}) = %d, want 16", got)
	}
}

// TestEveryTraceGetsItsWorkersContext checks that the scheduler hands every
// trace a worker runs that worker's one Context: the root, a stolen
// continuation, and a task the root's worker helps with at a join.  Worker
// 1 steals the root's continuation while the root's left branch waits for
// it; the continuation forks and waits in its own left branch until worker
// 0, stalled at the root's join, has stolen and run that fork's
// continuation.
func TestEveryTraceGetsItsWorkersContext(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	await := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Errorf("timed out waiting for %s", what)
		}
	}
	var root, stolen, helped *Context
	stolenRan, helpedRan := make(chan struct{}), make(chan struct{})
	if err := rt.Run(func(c *Context) {
		root = c
		c.Fork(func(*Context) { await(stolenRan, "a thief") }, func(c *Context) {
			stolen = c
			close(stolenRan)
			c.Fork(func(*Context) { await(helpedRan, "the stalled root to help") }, func(c *Context) {
				helped = c
				close(helpedRan)
			})
		})
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	w0, w1 := &rt.Worker(0).ctx, &rt.Worker(1).ctx
	if root != w0 || helped != w0 || stolen != w1 {
		t.Errorf("root, stolen and helped traces got %p, %p, %p; want %p, %p, %p",
			root, stolen, helped, w0, w1, w0)
	}
}
