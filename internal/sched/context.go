package sched

import "repro/internal/faultinject"

// Context is the handle through which running code interacts with the
// scheduler: it identifies the worker currently executing the code and
// provides the fork-join primitives.  A Context is only valid on the
// goroutine that received it.
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

// ViewEpoch returns the executing worker's current view epoch — the
// context-level twin of Worker().ViewEpoch(), for callers that hold only
// the context.  Typed reducer handles compare their cached epochs against
// it on every hit, so it must stay a single inlinable atomic load.
func (c *Context) ViewEpoch() uint64 { return c.w.viewEpoch.Load() }

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
//cilkvet:hotpath
func (c *Context) Fork(left, right func(*Context)) {
	w := c.w
	w.checkCancelled()
	w.forksLocal++
	if faultinject.Enabled() && faultinject.Fire(faultinject.SchedForceSteal) {
		w.forkForced(c, left, right)
		return
	}
	j := w.newJoin()
	t := w.newTask(right, j)
	w.pushTask(t)

	// If left (or anything it calls) panics, there is no cleanup here:
	// the panic unwinds to runRoot/runTask, whose abortScope settles this
	// task along with everything else the failed scope pushed.

	left(c)

	if w.wakeGated() {
		w.checkGate()
	}
	if w.tryPopOwn(t) {
		// Serial fast path: the continuation was not stolen.  Both
		// objects go straight back to the free lists — the pop proves no
		// other worker ever saw the join.
		w.popLiveFork(j)
		w.freeTask(t)
		w.freeJoin(j)
		right(c)
		return
	}
	// The continuation was stolen and promoted; wait for it, helping with
	// other work in the meantime, then fold its views back in.  The thief
	// recycles the task; the join is left to the GC (see join's doc).
	w.waitJoin(j)
	w.rt.reducers.Merge(w, w.curTrace, j.deposit)
	w.popLiveFork(j)
	if j.panicVal != nil {
		// Re-raise the contained value itself (a *PanicError wrapped at
		// the thief's recovery point, or the cancellation token) so the
		// original payload and stack survive every join on the way out.
		panic(j.panicVal)
	}
}

// forkForced is Fork under the forced-steal failpoint, Cilk's force_reduce:
// the continuation runs here as a thief would run it (fresh trace, view
// transferal, hypermerge at the join) and counts as a steal.
func (w *Worker) forkForced(c *Context, left, right func(*Context)) {
	left(c)
	j := &join{}
	w.nSteals.Add(1)
	w.nStalledJoins.Add(1)
	w.runTask(&task{fn: right, join: j, owner: w.id, job: w.curJob})
	w.rt.reducers.Merge(w, w.curTrace, j.deposit)
	if j.panicVal != nil {
		panic(j.panicVal)
	}
}

// ForkN executes the given branches as logically parallel work, preserving
// their serial (left-to-right) order on the no-steal path.  It is the
// n-ary generalisation of Fork, built by right-nesting binary forks.
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
	rest := branches[1:]
	c.Fork(branches[0], func(c2 *Context) { c2.ForkN(rest...) })
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
	mid := lo + (hi-lo)/2
	c.w.splitsLocal++
	c.Fork(
		func(c2 *Context) { c2.pfor(lo, mid, grain, body) },
		func(c2 *Context) { c2.pfor(mid, hi, grain, body) },
	)
}

// Group provides a help-first spawn/sync convenience API in the style of
// cilk_spawn / cilk_sync.  Unlike Fork, every spawned child is a separate
// stealable task even on the no-steal path, so each child contributes its
// own set of views; Wait folds the contributions back in spawn order after
// the parent's own updates.  Consequently the result equals the serial
// execution whenever the parent performs no reducer updates between its
// Spawn calls (or the monoid is commutative).  Code that needs exact serial
// semantics with interleaved parent updates should use Fork or ForkN.
//
// Every Spawn must be matched by a Wait before the enclosing task or Run
// returns: un-Waited children are abandoned — their contributions are
// never merged and their task objects confuse the runtime's recycling.
//
// A Group is bound to the worker that created it.  Spawn and Wait must be
// called from code executing on that worker: the serial branch that
// called NewGroup, including the left (inline) branch of a nested Fork —
// but never from a right-hand continuation, which a thief may execute on
// another worker (the deque and free lists are owner-only structures, so
// that would be a data race, as it already was for traces in the
// mutex-deque runtime).
type Group struct {
	ctx      *Context
	children []*groupChild
	waited   bool
}

type groupChild struct {
	t *task
	j *join
	// idx is the child's entry in the worker's liveForks stack, recorded
	// at Spawn time: Wait may run inside a Fork branch pushed after the
	// Spawns, so the children are not necessarily the newest entries.
	idx int
	// local records that the parent popped and ran the child itself, so
	// its join was never visible to a thief and can be recycled.
	local bool
}

// NewGroup creates an empty spawn group bound to this context.
func (c *Context) NewGroup() *Group {
	return &Group{ctx: c}
}

// Spawn schedules fn as a child of the group.
func (g *Group) Spawn(fn func(*Context)) {
	if g.waited {
		panic("sched: Spawn after Wait")
	}
	w := g.ctx.w
	w.checkCancelled()
	w.forksLocal++
	j := w.newJoin()
	t := w.newTask(fn, j)
	ch := &groupChild{t: t, j: j}
	g.children = append(g.children, ch)
	w.pushTask(t)
	ch.idx = len(w.liveForks) - 1
}

// Wait blocks until every spawned child has completed and merges their view
// contributions in spawn order.  Children that were not stolen are executed
// by the calling worker itself (newest first, like a deque pop), each as its
// own trace so the merge order is still the spawn order.
func (g *Group) Wait() {
	if g.waited {
		return
	}
	g.waited = true
	w := g.ctx.w
	// Children are zeroed out of the live-fork stack by their recorded
	// indices as they resolve, so a panic mid-Wait leaves abortScope
	// exactly the unresolved ones; trailing zeroes are swept at the end.
	// Reclaim and run children that are still in our own deque, newest
	// first (they are at the bottom).
	for i := len(g.children) - 1; i >= 0; i-- {
		ch := g.children[i]
		if w.tryPopOwn(ch.t) {
			ch.local = true
			w.runTask(ch.t)
			// Resolved: the child's join is complete, so a panic later
			// in Wait must not let abortScope touch this entry.  (The
			// entry is live here, so it cannot have been swept and the
			// index is in range.)
			w.liveForks[ch.idx] = liveFork{}
		}
	}
	// Wait for the rest and merge everything in spawn order.
	var panicked any
	for _, ch := range g.children {
		if !ch.j.finished() {
			w.waitJoin(ch.j)
		}
		w.rt.reducers.Merge(w, w.curTrace, ch.j.deposit)
		if ch.j.panicVal != nil && panicked == nil {
			panicked = ch.j.panicVal
		}
		if ch.local {
			// This worker completed the join itself, so no thief can hold
			// a stale reference; recycle both objects now that the
			// child's identity-check window is closed (runTask leaves
			// owner-pushed tasks unrecycled precisely for this).
			w.freeJoinUsed(ch.j)
			w.freeTask(ch.t)
		}
		if ch.idx < len(w.liveForks) {
			// In range only if the entry still exists: a nested Wait's
			// sweep inside an earlier child may already have truncated
			// this child's zeroed entry away.
			w.liveForks[ch.idx] = liveFork{}
		}
	}
	// Sweep resolved entries off the top of the stack.  When Wait ran
	// inside a newer Fork branch, that fork's live entry stays below-top
	// zeroes that the enclosing scope's truncation will remove.
	for n := len(w.liveForks); n > 0 && w.liveForks[n-1].j == nil; n-- {
		w.liveForks = w.liveForks[:n-1]
	}
	g.children = g.children[:0]
	if panicked != nil {
		// Contained value, not a formatted string: the child's recovery
		// point already wrapped it with the original payload and stack.
		panic(panicked)
	}
}
