package sched

import (
	"fmt"
	"runtime"

	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// Worker is one processor surrogate: a goroutine with its own deque that
// executes tasks and participates in randomized work stealing.
//
// Field layout matters: the deque's indices are padded internally, the
// owner-only hot fields (rng state, trace, free lists) sit together, and
// every statistics counter is a cache-line-padded metrics.PaddedCounter so
// that neither thieves CASing on the deque nor Stats() readers false-share
// with the owner's fast path.
type Worker struct {
	rt *Runtime
	id int

	// dq is the worker's Chase–Lev deque; its top/bottom indices are
	// individually padded inside the struct.
	dq deque

	// rngState drives victim selection (xorshift64*).
	rngState uint64

	// curTrace is the reducer trace of the work the worker is currently
	// executing in serial order.  It changes only when the worker begins
	// or ends a stolen task (or the root task).
	curTrace Trace

	// ctx is the worker's one Context, handed to every trace it runs.
	ctx Context

	// curJob is the submission whose work the worker is currently
	// executing; fork checkpoints poll its cancellation flag.  Owner-only,
	// saved and restored around nested traces exactly like curTrace.  Nil
	// while executing a plain Run (which has no cancellation).
	curJob *job

	// local is per-worker storage for the reducer mechanism.
	local any

	// viewEpoch is bumped (BumpViewEpoch) by the reducer mechanism whenever
	// a view this worker resolved may have died under the worker's one
	// context: at a trace boundary, after a hypermerge, and where a lookup
	// drops a retired reducer's view from a recycled address.  A view only
	// dies on the worker whose private map holds it, so the owner is the
	// one writer and the field is a plain counter.  Typed reducer handles
	// serve a cached view only while the epoch they stamped it with still
	// matches, so any of those events silently invalidates every cache
	// entry built before it.  It starts at 1, so a never-stamped cache
	// entry (epoch 0) never matches.
	viewEpoch uint64

	// freeTasks and freeJoins are owner-only free lists backing the
	// allocation-free fork fast path.  Both are recycled only by the worker
	// that pushed them, when it pops its task back; what a thief took goes
	// to the GC (see task's and join's doc comments).
	freeTasks *task
	freeJoins *join

	// liveForks is the owner-only stack of forks this worker has pushed
	// whose joins are not yet resolved, in push order.  Each entry keeps
	// its own join pointer, captured at push time: the entry's task
	// pointer is used only for identity comparison with what popBottom
	// returns, never dereferenced, because once stolen the task belongs to
	// its executor.  The fork body is the only spawn and thieves take the
	// oldest task first, so this stack and the deque nest strictly: the
	// deque holds the tasks of the newest entries, in the same order, and a
	// fork's own entry is the top one when its join resolves.  abortScope
	// unwinds the stack when a trace scope panics, so nothing a failed Run
	// pushed can outlive the Run.
	liveForks []liveFork

	// Owner-only plain counters for the fork fast path; flushCounters
	// folds them into the atomic counters below at task boundaries
	// (before a join completes or a root returns), so Stats() is exact
	// once a Run has returned without any atomic RMW per fork.
	forksLocal    int64
	splitsLocal   int64
	maxDequeLocal int64
	gatedLocal    int64 // wake-ups the gate held back
	releasedLocal int64 // gated traces that outlived the gate and signalled

	// The wake gate (idle.go), for the roots this worker runs (runRoot):
	// gateUntil, while nonzero, is when the root in progress will have
	// outlived it; gateChecks, how often Fork has asked; stamped, whether
	// the root has sent its timed wake token; rootRan, how long the previous
	// root ran; gatedRoots, how many the gate has held; lastWake, this
	// worker's previous wake-up sample.
	gateUntil  int64
	gateChecks uint
	stamped    bool
	rootRan    int64
	gatedRoots uint
	lastWake   int64

	// idle decides when loop parks (idle.go).  Owner-written; its
	// counters are padded like the ones below.
	idle idlePolicy

	_ [64]byte // keep the counters off the owner's hot line

	nForks        metrics.PaddedCounter
	nSteals       metrics.PaddedCounter
	nFailedSteals metrics.PaddedCounter
	nStalledJoins metrics.PaddedCounter
	nHelped       metrics.PaddedCounter
	nTasks        metrics.PaddedCounter
	nPForSplits   metrics.PaddedCounter
	maxDeque      metrics.PaddedCounter
	nWakesGated   metrics.PaddedCounter
	nGateReleased metrics.PaddedCounter
}

func newWorker(rt *Runtime, id int, seed uint64) *Worker {
	if seed == 0 {
		seed = 1
	}
	w := &Worker{rt: rt, id: id, rngState: seed, viewEpoch: 1}
	w.ctx = Context{w: w, wid: int32(id)}
	return w
}

// ID returns the worker's index, in [0, Workers).
func (w *Worker) ID() int { return w.id }

// Runtime returns the owning runtime.
func (w *Worker) Runtime() *Runtime { return w.rt }

// Local returns the per-worker state installed by SetLocal.
func (w *Worker) Local() any { return w.local }

// SetLocal installs per-worker state for the reducer mechanism.  It is
// normally called from ReducerRuntime.WorkerInit.
func (w *Worker) SetLocal(v any) { w.local = v }

// CurrentTrace returns the worker's current reducer trace.
func (w *Worker) CurrentTrace() Trace { return w.curTrace }

// BumpViewEpoch advances the worker's view epoch, invalidating every view
// a typed reducer handle cached against the previous one.  Reducer
// mechanisms call it on the worker's own goroutine whenever a view the
// worker resolved can die: at trace boundaries, after hypermerges, and
// where a lookup drops a retired occupant of a recycled address.
func (w *Worker) BumpViewEpoch() { w.viewEpoch++ }

// newTask takes a task from the worker's free list, or allocates one, with
// fn as its continuation; a ParallelFor split sets its range instead.
// Owner-goroutine only.
func (w *Worker) newTask(fn func(*Context)) *task {
	if t := w.freeTasks; t != nil {
		w.freeTasks = t.next
		t.fn, t.job, t.next = fn, w.curJob, nil
		return t
	}
	return &task{fn: fn, job: w.curJob}
}

// freeTask recycles a task its owner has popped back, which closes its
// identity-check window: no thief ever held the pointer.
func (w *Worker) freeTask(t *task) {
	t.fn, t.body, t.rest, t.join, t.job = nil, nil, nil, nil, nil
	t.next = w.freeTasks
	w.freeTasks = t
}

// newJoin takes a join from the worker's free list, or allocates one.
func (w *Worker) newJoin() *join {
	if j := w.freeJoins; j != nil {
		w.freeJoins = j.next
		j.next = nil
		return j
	}
	return &join{}
}

// freeJoin recycles a join that is still in its zero state: its task was
// popped back, which proves no thief ever touched it.
func (w *Worker) freeJoin(j *join) {
	j.next = w.freeJoins
	w.freeJoins = j
}

// pushTask publishes t on this worker's deque and applies the wake
// protocol: only the empty→non-empty transition can turn a parked worker's
// situation from "nothing to steal" into "something to steal", so it is
// the only push that signals — unless the trace is behind the wake gate
// (idle.go); trySteal re-signals while a deep deque drains.  The fork body
// (Context.fork) is the only caller: a push from anywhere else breaks the
// nesting popOwn and waitJoin trap.
//
//cilkvet:hotpath
func (w *Worker) pushTask(t *task) {
	w.liveForks = append(w.liveForks, liveFork{t: t, j: t.join})
	wasEmpty, depth := w.dq.pushBottom(t)
	if depth > w.maxDequeLocal {
		w.maxDequeLocal = depth
	}
	if wasEmpty {
		if w.wakeGated() {
			w.gatedLocal++
		} else {
			w.rt.signalWork(w.wakeStamp())
		}
	}
}

// popOwn takes t, the newest task this worker pushed, back from the bottom
// of its deque, or reports that a thief has it.  Nesting leaves no third
// outcome: a newer task was pushed by a fork that has since joined, an older
// one is stolen before t is.  Another task at the bottom was therefore pushed
// outside Fork; it goes back, so that the abort of the scope this panic fails
// finds the deque and liveForks in step.
func (w *Worker) popOwn(t *task) bool {
	got := w.dq.popBottom()
	if got != t && got != nil {
		w.dq.pushBottom(got)
		panic("sched: popped a task that is not the fork's own")
	}
	return got != nil
}

// popLiveFork removes the newest liveForks entry: forks nest, so it is the
// calling fork's own.  The vacated slot is cleared so that it does not pin a
// stolen task's closure until the next fork this deep overwrites it.
func (w *Worker) popLiveFork() {
	n := len(w.liveForks) - 1
	w.liveForks[n] = liveFork{}
	w.liveForks = w.liveForks[:n]
}

// liveFork is one liveForks entry: a pushed task and the join captured at
// push time (carried separately so the entry never needs to dereference
// the task, which belongs to its executor once stolen).
type liveFork struct {
	t *task
	j *join
}

// abortScope runs when the trace scope that begins at liveForks[mark]
// panics: every task the scope pushed is either reclaimed from the deque
// (never seen by a thief — both objects recycle) or, if stolen, waited
// out with its deposit dropped, so no user code from a failed Run keeps
// executing after Run has returned.  Newest first, as their forks would
// have joined.
func (w *Worker) abortScope(mark int) {
	for len(w.liveForks) > mark {
		lf := w.liveForks[len(w.liveForks)-1]
		if w.popOwn(lf.t) {
			w.freeTask(lf.t)
			w.freeJoin(lf.j)
		} else {
			w.waitJoin(lf.j)
			// The deposit the stolen branch left behind will never reach a
			// Merge — the scope that would have folded it in is panicking —
			// so hand it back to the reducer mechanism, keeping the
			// pagepool and view accounting balanced across an abort.
			w.rt.reducers.Discard(w, lf.j.deposit)
		}
		w.popLiveFork()
	}
}

// flushCounters publishes the owner-local fast-path counters into the
// atomic ones.  It runs before a task's join completes (and before a root
// reports done), so every fork a Run performed is visible to Stats() by the
// time Run returns.
func (w *Worker) flushCounters() {
	if w.forksLocal != 0 {
		w.nForks.Add(w.forksLocal)
		w.forksLocal = 0
	}
	if w.splitsLocal != 0 {
		w.nPForSplits.Add(w.splitsLocal)
		w.splitsLocal = 0
	}
	if w.maxDequeLocal != 0 {
		w.maxDeque.Max(w.maxDequeLocal)
		w.maxDequeLocal = 0
	}
	if w.gatedLocal|w.releasedLocal != 0 {
		w.nWakesGated.Add(w.gatedLocal)
		w.nGateReleased.Add(w.releasedLocal)
		w.gatedLocal, w.releasedLocal = 0, 0
	}
}

// loop is the pool worker's scheduling loop: sweep the other deques and the
// service's admission queue; after parkSweeps empty sweeps either
// stay warm (idle.go: yield the P and sweep again, for a time set by what a
// wake-up is measured to cost, or while a long root runs) or park.  Parking
// follows a Dekker-style protocol with signalWork: the worker registers
// itself in rt.parked and then re-checks every deque, while a forking worker
// publishes its push and then reads rt.parked.  Go atomics are sequentially
// consistent, so one of the two always sees the other and no wakeup is lost
// — there is no timed poll anywhere, and a warm worker is not registered, so
// it needs no signal.
func (w *Worker) loop() {
	rt := w.rt
	rt.started.Done()
	defer rt.stopped.Done()
	sweeps := 0
	for {
		if t := w.trySteal(); t != nil {
			w.idle.tookSteal()
			w.runTask(t)
			sweeps = 0
			continue
		}
		if rt.service != nil {
			if h := rt.service.pop(); h != nil {
				w.idle.tookRoot(h.queuedAt)
				w.runServiceJob(h)
				sweeps = 0
				continue
			}
		}
		w.idle.unparked = false
		sweeps++
		if sweeps < parkSweeps {
			continue
		}
		if w.idle.stayWarm() {
			// Callers, the service's clients and the collector get the P
			// between sweeps; with nothing else runnable this returns at
			// once.
			runtime.Gosched()
			continue
		}
		if w.idle.thiefWarm(rt) {
			runtime.Gosched()
			continue
		}
		// Register as parked and re-check for work that raced with the
		// registration before actually sleeping.
		sweeps = 0
		if faultinject.Enabled() && faultinject.Perturb(faultinject.SchedPark) {
			continue // chaos: delay the park decision by one extra sweep
		}
		rt.parked.Add(1)
		if rt.workAvailable() || rt.serviceReady() {
			rt.parked.Add(-1)
			continue
		}
		rt.parks.Add(1)
		parkedAt := nanotime()
		select {
		case <-rt.quit:
			rt.parked.Add(-1)
			return
		case sent := <-rt.wake:
			rt.unparks.Add(1)
			rt.parked.Add(-1)
			w.idle.unparked = true
			w.idle.ranTask()
			w.woke(sent, parkedAt)
		}
	}
}

// runTrace is the scope every trace runs in — the Run caller's root as
// worker 0, a service job, a stolen task — and the only place
// one begins: a fresh trace, the closure's panic boundary, view transferal.
// It returns the trace's deposit, or the contained panic value (wrapped
// here, nearest the panic, so it carries the panicking stack; or the
// cancellation token; a failed view transferal is one too) once everything
// the scope pushed is settled and its views are discarded on this worker.
// EndTrace runs exactly once per BeginTrace: one that panics has already
// restored the enclosing trace (ReducerRuntime.EndTrace), so the abort
// path ends only a trace whose closure panicked.
func (w *Worker) runTrace(fn func(*Context), jb *job) (d Deposit, panicked any) {
	w.nTasks.Add(1)
	prev, prevJob := w.curTrace, w.curJob
	w.curTrace = w.rt.reducers.BeginTrace(w)
	w.curJob = jb
	mark := len(w.liveForks)
	ending := false
	defer func() {
		if p := recover(); p != nil {
			d, panicked = nil, wrapPanic(p)
			if !ending {
				w.abortScope(mark)
				w.endTraceAbort()
			}
		}
		w.curTrace, w.curJob = prev, prevJob
		w.flushCounters()
	}()
	fn(&w.ctx)
	ending = true
	return w.rt.reducers.EndTrace(w, w.curTrace), nil
}

// runServiceJob executes one admitted service job; the outcome goes through
// the job's handle (completion claim + settle), so a deadline or watchdog
// cancellation that already completed the handle sees its deposit discarded.
func (w *Worker) runServiceJob(h *JobHandle) {
	if h.job.cancelled.Load() {
		// Cancelled between dispatch and execution: never begin the trace.
		w.nTasks.Add(1)
		h.settleFromWorker(w, nil, errJobCancelled)
		return
	}
	d, p := w.runRoot(h.fn, &h.job)
	h.settleFromWorker(w, d, p)
}

// runRoot runs a root on w — the Run caller's as worker 0, a service job on
// the pool worker that popped it — behind the wake gate (idle.go): the root
// is predicted from the length of the previous one w ran, and w times it
// for the next.  A root predicted at least warmCapNS long counts in
// rt.longRoots while it runs, which keeps its thieves warm between steals
// (idle.go); runTrace contains every panic, so the count always comes down.
func (w *Worker) runRoot(fn func(*Context), jb *job) (Deposit, any) {
	long := w.rootRan >= warmCapNS
	if long {
		w.rt.longRoots.Add(1)
	}
	start := w.shutGate()
	d, p := w.runTrace(fn, jb)
	w.gateUntil, w.rootRan = 0, nanotime()-start
	if long {
		w.rt.longRoots.Add(-1)
	}
	return d, p
}

// endTraceAbort ends the trace of a scope whose closure panicked: the
// deposit is discarded (its merge will never run), and a secondary panic
// from the reducer mechanism itself is contained so the primary failure —
// already captured by the caller — is the one reported.
func (w *Worker) endTraceAbort() {
	defer func() { _ = recover() }()
	w.rt.reducers.Discard(w, w.rt.reducers.EndTrace(w, w.curTrace))
}

// runTask executes a stolen task as a trace of its own and completes its
// join: with the deposit, or, if the branch failed or its view transferal
// did, with the contained failure and no deposit.  The join always
// completes, or the forker would hang.
//
// The task is not recycled: a stolen task's pointer could migrate through
// thieves' pools back into the origin worker's free list and forge an
// identity match in popOwn (ABA) while the pushing fork is still suspended.
// It goes to the GC — part of the steal cost the paper's accounting already
// budgets for.
func (w *Worker) runTask(t *task) {
	jb := t.job
	if jb != nil {
		jb.progress.Add(1) // a stolen/helped branch ran: the job is alive
		if jb.cancelled.Load() {
			// Cancelled before this branch started: never begin the trace.
			// The token crosses the join as it would from a checkpoint.
			w.nTasks.Add(1)
			t.join.complete(nil, errJobCancelled)
			return
		}
	}
	// A stolen task's pushes signal, whatever gate its root began behind.
	prevGate := w.gateUntil
	w.gateUntil = 0
	d, panicked := w.runTrace(t.run, jb)
	w.gateUntil = prevGate
	t.join.complete(d, panicked)
}

// trySteal performs one sweep over the other workers in random order and
// returns a stolen task, or nil if every deque was empty.  When a steal
// leaves the victim's deque non-empty, another parked worker is woken so
// that a deep deque drains in parallel.
func (w *Worker) trySteal() *task {
	rt := w.rt
	n := len(rt.workers)
	if n == 1 {
		return nil
	}
	if faultinject.Enabled() && faultinject.Perturb(faultinject.SchedSteal) {
		// Chaos: the sweep pretends every deque was empty, perturbing
		// victim order and park timing without invalidating the schedule
		// (a sweep racing real pushes can legally find nothing).
		w.nFailedSteals.Add(1)
		return nil
	}
	start := int(w.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		victim := rt.workers[(start+i)%n]
		if victim == w {
			continue
		}
		if t := victim.dq.stealTop(); t != nil {
			w.nSteals.Add(1)
			if victim.dq.size() > 0 {
				rt.signalWork(0)
			}
			return t
		}
	}
	w.nFailedSteals.Add(1)
	return nil
}

// waitJoin blocks until the stolen continuation recorded in j completes,
// stealing and executing other tasks while it waits so the worker does not
// idle.  When there is nothing to help with, the worker parks on the join's
// waiter channel and on the runtime's wake channel (registering in
// rt.parked first, like loop), so it is woken immediately by either the
// completing thief or by new work — no timed polling.  While a long root
// runs it first stays warm like an idle thief (idle.go, thiefWarm).
func (w *Worker) waitJoin(j *join) {
	w.nStalledJoins.Add(1)
	rt := w.rt
	attempts := 0
	// The branch this worker ran before the join is its last task.
	w.idle.ranTask()
	for !j.finished() {
		if t := w.trySteal(); t != nil {
			w.nHelped.Add(1)
			w.idle.ranTask()
			w.runTask(t)
			attempts = 0
			continue
		}
		// Thieves take the oldest task first, so everything this worker
		// pushed before the stolen continuation is stolen too, and every
		// fork since has joined: a task here was pushed outside Fork, and
		// parking on a join that may depend on it would hang.
		if w.dq.size() > 0 {
			panic("sched: stalled join with a non-empty own deque")
		}
		attempts++
		if attempts < parkSweeps {
			continue
		}
		if w.idle.thiefWarm(rt) {
			runtime.Gosched()
			continue
		}
		attempts = 0
		if faultinject.Enabled() && faultinject.Perturb(faultinject.SchedPark) {
			continue // chaos: delay the park decision by one extra sweep
		}
		ch := j.park()
		if j.finished() {
			return
		}
		rt.parked.Add(1)
		if rt.workAvailable() {
			rt.parked.Add(-1)
			continue
		}
		rt.parks.Add(1)
		select {
		case <-ch:
		case <-rt.wake:
			// The token may have been meant for stealable work anywhere, or
			// for a queued service job this worker (busy at a join)
			// cannot dispatch.  If the join happens to have
			// completed too, the loop exits without a steal sweep, so pass
			// the token on rather than swallow it; a spurious extra wake
			// just re-parks.
			if rt.workAvailable() || rt.serviceReady() {
				rt.signalWork(0)
			}
			w.idle.ranTask()
		}
		rt.unparks.Add(1)
		rt.parked.Add(-1)
	}
}

// nextRand advances the worker's xorshift64* state.
func (w *Worker) nextRand() uint64 {
	x := w.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	w.rngState = x
	return x * 0x2545F4914F6CDD1D
}

// String implements fmt.Stringer for debugging.
func (w *Worker) String() string {
	return fmt.Sprintf("worker(%d)", w.id)
}
