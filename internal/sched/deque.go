package sched

import "sync/atomic"

// task is one stealable unit of work: the continuation of a fork.  In Cilk
// terms it is the suspended parent frame sitting in the worker's deque,
// waiting either to be popped back by its owner (the serial fast path) or
// to be stolen and promoted into a full frame.  The continuation is a
// Fork's right branch, fn; a ParallelFor split's right half: the range
// [lo, hi) of body at the loop's grain; or a ForkN's branches after its
// first, rest.  Each is stored in the task itself, so that neither a split
// nor a level of ForkN allocates a closure.
//
// Tasks are pooled in per-worker free lists (see Worker.newTask): the
// owner recycles a task when it pops it back, on the fork fast path or in a
// failed scope's abort, so the no-steal fork path allocates nothing; stolen
// tasks are left to the GC so their pointers can never re-enter a pool
// while a suspended fork still compares against them.
type task struct {
	fn   func(*Context)
	body func(*Context, int)

	lo, hi, grain int

	rest []func(*Context)

	join *join
	// job is the submission this task belongs to, captured from the
	// pushing worker at creation so a thief inherits the forker's
	// cancellation token.  Nil for jobs submitted through plain Run.
	job *job
	// next links tasks in a worker's free list while recycled.
	next *task
}

// run executes the task's continuation on c: the one place a branch that
// was pushed runs, whether its owner popped it back, a thief stole it or
// the forced-steal failpoint runs it as stolen.
func (t *task) run(c *Context) {
	if t.body != nil {
		c.pfor(t.lo, t.hi, t.grain, t.body)
		return
	}
	if t.rest != nil {
		c.ForkN(t.rest...)
		return
	}
	t.fn(c)
}

// dequeInitialSize is the starting capacity of a deque's circular buffer.
// It must be a power of two.
const dequeInitialSize = 64

// dequeBuf is one growable circular buffer generation.  Slots are atomic
// because a thief may read a slot the owner is concurrently re-using one
// lap later; the subsequent CAS on top detects the conflict, but the read
// itself must be race-free.
type dequeBuf struct {
	mask int64
	slot []atomic.Pointer[task]
}

func newDequeBuf(size int64) *dequeBuf {
	return &dequeBuf{mask: size - 1, slot: make([]atomic.Pointer[task], size)}
}

func (b *dequeBuf) cap() int64           { return b.mask + 1 }
func (b *dequeBuf) get(i int64) *task    { return b.slot[i&b.mask].Load() }
func (b *dequeBuf) put(i int64, t *task) { b.slot[i&b.mask].Store(t) }

// deque is the per-worker double-ended work queue, implemented as a
// lock-free Chase–Lev deque (Chase & Lev, SPAA 2005).  The owner pushes
// and pops at the bottom (newest end) without synchronisation except on
// the last-element race; thieves steal from the top (oldest end) with a
// single CAS, mirroring the THE protocol's access pattern but with O(1)
// steals and no mutex anywhere.
//
// top only ever increases (a steal, or the owner claiming the last
// element); bottom is written only by the owner.  Both indices are
// monotonic positions into an unbounded logical array; the circular buffer
// maps position i to slot i&mask and is replaced (never mutated in place,
// other than slot writes) when it fills.  Go's sync/atomic operations are
// sequentially consistent, which provides the store-load fence the
// algorithm needs between publishing bottom and reading top.
type deque struct {
	// Leading pad: the deque is embedded in Worker after other hot fields
	// (rt, id), and the thief-contended top index must not share their
	// cache line.
	_      [64]byte
	top    atomic.Int64
	_      [56]byte // keep thieves' CAS target off the owner's line
	bottom atomic.Int64
	_      [56]byte
	buf    atomic.Pointer[dequeBuf]
	_      [56]byte
}

// pushBottom appends t at the newest end.  Owner only.  It reports whether
// the deque was empty before the push — the push-into-empty-deque
// transition that drives the runtime's wake protocol — and the resulting
// depth for the high-water statistic.
func (d *deque) pushBottom(t *task) (wasEmpty bool, depth int64) {
	b := d.bottom.Load()
	top := d.top.Load()
	buf := d.buf.Load()
	if buf == nil {
		buf = newDequeBuf(dequeInitialSize)
		d.buf.Store(buf)
	} else if b-top >= buf.cap() {
		buf = d.grow(buf, top, b)
	}
	buf.put(b, t)
	d.bottom.Store(b + 1)
	// wasEmpty must be judged from top AFTER the push is published: a
	// thief may have drained the deque between the top load above and the
	// bottom store, with its own post-steal size() check predating the
	// store — if the owner then also judged by the stale top, neither
	// side would signal and the new task could sit unseen by parked
	// workers.  Re-reading top closes the window: either the thief's
	// size() sees the new bottom, or this load sees the thief's CAS.
	return d.top.Load() == b, b - top + 1
}

// grow replaces the buffer with one twice the size, copying the live range
// [top, bottom).  Thieves still holding the old buffer read the same task
// pointers from it; the CAS on top serialises claims, so no element can be
// taken twice.
func (d *deque) grow(old *dequeBuf, top, bottom int64) *dequeBuf {
	nb := newDequeBuf(old.cap() * 2)
	for i := top; i < bottom; i++ {
		nb.put(i, old.get(i))
	}
	d.buf.Store(nb)
	return nb
}

// popBottom removes and returns the newest task, or nil if the deque is
// empty.  Owner only, and the owner's only pop: at the end of a Fork it
// returns the fork's continuation if no thief has promoted it (forks nest
// and thieves take the oldest task first, so nothing else can be newest),
// nil if one has.  Only the last-element case races with thieves and is
// resolved by a CAS on top.
func (d *deque) popBottom() *task {
	buf := d.buf.Load()
	if buf == nil {
		return nil
	}
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	top := d.top.Load()
	if top > b {
		// Empty: restore the canonical empty state top == bottom.
		d.bottom.Store(b + 1)
		return nil
	}
	t := buf.get(b)
	if top == b {
		// Last element: race thieves for it.
		if !d.top.CompareAndSwap(top, top+1) {
			t = nil
		}
		d.bottom.Store(b + 1)
	}
	return t
}

// stealTop removes and returns the oldest task, or nil if the deque is
// empty.  Thieves call it on a victim's deque; it is O(1) — one CAS per
// claimed task, retried only when racing another thief or the owner for
// the same element.
func (d *deque) stealTop() *task {
	for {
		top := d.top.Load()
		b := d.bottom.Load()
		if top >= b {
			return nil
		}
		buf := d.buf.Load()
		t := buf.get(top)
		if d.top.CompareAndSwap(top, top+1) {
			return t
		}
		// Lost the race for slot top; reload the indices and retry.
	}
}

// size reports the current number of queued tasks.  It is a racy snapshot
// (no lock is taken) — good enough for statistics and the wake protocol's
// re-check scan.
func (d *deque) size() int {
	b := d.bottom.Load()
	t := d.top.Load()
	if b <= t {
		return 0
	}
	return int(b - t)
}
