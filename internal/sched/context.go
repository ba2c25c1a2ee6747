package sched

import "repro/internal/faultinject"

// Context is the handle through which running code interacts with the
// scheduler: it identifies the worker currently executing the code and
// provides the fork-join primitives.  A Context is only valid on the
// goroutine that received it.
//
// Each worker has exactly one, built with the worker: every trace the
// worker runs — a root, a stolen task, a task it helps with at a join —
// receives the same pointer, so beginning a trace allocates none.  What
// tells two traces on one worker apart is the worker's view epoch, which
// the reducer mechanism bumps wherever a view of the worker's can die (at
// every trace boundary among them).  A reducer engine serves one runtime,
// so the worker's id and that epoch name a view cache entry; the pointer
// itself is not compared.
type Context struct {
	w *Worker
	// wid mirrors w.id.  Typed reducer handles index their per-worker view
	// caches on every steady-state hit; reading the id off the context
	// keeps that index off the c.w load's dependency chain, so the slot
	// fetch and the view-epoch load issue in parallel.
	wid int32
}

// Worker returns the worker executing this context.
func (c *Context) Worker() *Worker { return c.w }

// WorkerID returns the executing worker's id without touching the worker
// struct; see the wid field comment.
func (c *Context) WorkerID() int { return int(c.wid) }

// ViewEpoch returns the executing worker's current view epoch.  Only that
// worker writes it, and a Context is only valid on its worker's goroutine,
// so it is a plain load.  Typed reducer handles stamp their cached views
// with it after a lookup and compare against it on every hit, so it must
// stay inlinable.
func (c *Context) ViewEpoch() uint64 { return c.w.viewEpoch }

// Runtime returns the owning runtime.
func (c *Context) Runtime() *Runtime { return c.w.rt }

// Fork executes left and right as logically parallel branches and returns
// when both have completed.  left runs immediately on the calling worker;
// right — the continuation — is made available for stealing.  If no thief
// takes it, the calling worker runs right itself immediately after left, so
// the execution order equals the serial order left-then-right and no
// reducer views are created, transferred or merged.  If right is stolen,
// the thief executes it with a fresh set of views and the calling worker
// merges those views back in serial order at the join.
//
// Fork is one call into the fork body it shares with ParallelFor's splits;
// scripts/inline_check.sh pins that it inlines.
//
//cilkvet:hotpath
func (c *Context) Fork(left, right func(*Context)) {
	c.fork(left, right, nil, nil, 0, 0, 0)
}

// fork is the one fork body.  A Fork passes its two branches and a nil body;
// a ForkN passes its first branch as left and the others as rest; a
// ParallelFor split passes nil branches and the range [lo, hi) of body,
// whose left half runs here.  The continuation — right, rest or the right
// half of the range — is carried in the pooled task itself, so that
// forking allocates nothing.
//
//cilkvet:hotpath
func (c *Context) fork(left, right func(*Context), rest []func(*Context), body func(*Context, int), lo, hi, grain int) {
	w := c.w
	w.checkCancelled()
	w.forksLocal++
	t := w.newTask(right)
	if body != nil {
		t.body, t.lo, t.hi, t.grain = body, lo+(hi-lo)/2, hi, grain
	} else if rest != nil {
		t.rest = rest
	}
	if faultinject.Enabled() && faultinject.Fire(faultinject.SchedForceSteal) {
		w.forkForced(c, left, lo, t)
		return
	}
	j := w.newJoin()
	t.join = j
	w.pushTask(t)

	// If left (or anything it calls) panics, there is no cleanup here: the
	// panic unwinds to the trace scope (runTrace), whose abortScope settles
	// this task along with everything else the failed scope pushed.

	if body == nil {
		left(c)
	} else {
		c.pfor(lo, t.lo, grain, body)
	}

	if w.wakeGated() {
		w.checkGate()
	}
	if w.popOwn(t) {
		// Serial fast path: the continuation was not stolen.  Both
		// objects go back to the free lists — the pop proves no other
		// worker ever saw them — the join at once, the task once its
		// branch has run here.
		w.popLiveFork()
		w.freeJoin(j)
		t.run(c)
		w.freeTask(t)
		return
	}
	// The continuation was stolen and promoted; wait for it, helping with
	// other work in the meantime, then fold its views back in.  The thief
	// leaves the task, and this worker the join, to the GC (see join's doc).
	w.waitJoin(j)
	w.popLiveFork()
	w.joinStolen(j)
}

// forkForced runs a continuation under the forced-steal failpoint, Cilk's
// force_reduce: after the left branch, t runs here as a thief would run it
// (fresh trace, view transferal, hypermerge at the join) and counts as a
// steal.  t never reached the deque, so it is recycled like a popped one.
func (w *Worker) forkForced(c *Context, left func(*Context), lo int, t *task) {
	if t.body == nil {
		left(c)
	} else {
		c.pfor(lo, t.lo, t.grain, t.body)
	}
	j := &join{}
	t.join = j
	w.nSteals.Add(1)
	w.nStalledJoins.Add(1)
	w.runTask(t)
	w.freeTask(t)
	w.joinStolen(j)
}

// joinStolen resumes the forking strand once its stolen continuation has
// finished: the hypermerge of the views the thief deposited, or, if the
// branch failed, its failure raised again here.  A failed branch deposits
// nothing (its views died on the thief, runTask), so no Reduce runs on behalf
// of a job that has already failed, and what crosses every join on the way
// out is the contained value itself — the *PanicError wrapped at the thief's
// recovery point, or the cancellation token — original payload and stack.
func (w *Worker) joinStolen(j *join) {
	if j.panicVal != nil {
		panic(j.panicVal)
	}
	w.rt.reducers.Merge(w, w.curTrace, j.deposit)
}

// ForkN executes the given branches as logically parallel work, preserving
// their serial (left-to-right) order on the no-steal path.  It is the
// n-ary generalisation of Fork, built by right-nesting binary forks: the
// first branch runs here, and the continuation, which a thief may take
// whole, is a ForkN of the others.  That continuation is the pooled task
// carrying branches[1:], so a ForkN that is not stolen allocates nothing.
func (c *Context) ForkN(branches ...func(*Context)) {
	switch len(branches) {
	case 0:
		return
	case 1:
		branches[0](c)
		return
	case 2:
		c.Fork(branches[0], branches[1])
		return
	}
	c.fork(branches[0], nil, branches[1:], nil, 0, 0, 0)
}

// ParallelFor executes body(i) for every i in [lo, hi) with automatic grain
// selection, dividing the range by recursive binary forking exactly the way
// the Cilk Plus compiler desugars cilk_for.  Iterations are executed in
// serial order within each grain and the overall reduction order equals the
// serial order.
func (c *Context) ParallelFor(lo, hi int, body func(*Context, int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	grain := n / (8 * c.w.rt.Workers())
	if grain < 1 {
		grain = 1
	}
	if grain > 2048 {
		grain = 2048
	}
	c.ParallelForGrain(lo, hi, grain, body)
}

// ParallelForGrain is ParallelFor with an explicit grain size: ranges of at
// most grain iterations are executed serially without further forking.
func (c *Context) ParallelForGrain(lo, hi, grain int, body func(*Context, int)) {
	if grain < 1 {
		grain = 1
	}
	c.pfor(lo, hi, grain, body)
}

func (c *Context) pfor(lo, hi, grain int, body func(*Context, int)) {
	if hi-lo <= grain {
		for i := lo; i < hi; i++ {
			body(c, i)
		}
		return
	}
	c.w.splitsLocal++
	c.fork(nil, nil, nil, body, lo, hi, grain)
}
