package sched

import (
	"errors"
	"testing"
)

// pushStray pushes a task the way only Fork may: by hand, with no fork to
// pop it back or wait for it.
func pushStray(w *Worker) *task {
	t := w.newTask(func(*Context) {})
	t.join = w.newJoin()
	w.pushTask(t)
	return t
}

// TestBrokenNestingIsTrapped breaks by hand the invariant the scheduler rests
// on — tasks are pushed only by Fork, so a worker's deque and its liveForks
// nest — once for each of the two places that rely on it.  One worker, so
// that no thief takes the stray task first.  Each violation must be caught
// by its named trap, contained like any panic in a job, and leave the
// runtime as a failed job does: deque and liveForks empty, the next Run
// clean.  Nothing but this test reaches either trap.
func TestBrokenNestingIsTrapped(t *testing.T) {
	cases := []struct {
		name, trap string
		job        func(*Context)
	}{
		// The left branch leaves a task above the fork's own continuation.
		{"stray above the continuation", "sched: popped a task that is not the fork's own", func(c *Context) {
			c.Fork(func(c *Context) { pushStray(c.Worker()) }, func(*Context) {})
		}},
		// A join that depends on a task in the waiting worker's own deque,
		// which no one would run: the worker would park for good.
		{"stray below a stalled join", "sched: stalled join with a non-empty own deque", func(c *Context) {
			w := c.Worker()
			w.waitJoin(pushStray(w).join)
		}},
	}
	for _, tc := range cases {
		rt := New(Config{Workers: 1})
		err := rt.RunErr(tc.job)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != tc.trap {
			t.Errorf("%s: RunErr = %v, want a *PanicError for %q", tc.name, err, tc.trap)
		}
		if err := rt.Quiescent(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if n := len(rt.Worker(0).liveForks); n != 0 {
			t.Errorf("%s: %d live forks left behind", tc.name, n)
		}
		ran := false
		if err := rt.RunErr(func(c *Context) {
			c.Fork(func(*Context) {}, func(*Context) { ran = true })
		}); err != nil || !ran {
			t.Errorf("%s: next Run: err %v, continuation ran %v", tc.name, err, ran)
		}
		rt.Close()
	}
}
