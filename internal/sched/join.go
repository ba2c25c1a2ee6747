package sched

import "sync/atomic"

// join coordinates one Fork: it is the model's analogue of a promoted
// ("full") frame.  It is created lazily in the sense that it only matters
// when the continuation is actually stolen; in the serial fast path the
// struct is taken from the worker's free list but never synchronised on,
// and is recycled, still in its zero state, as soon as the owner pops its
// continuation back.
//
// Joins whose continuation WAS stolen are not recycled: after the owner
// observes finished() the thief may still be inside complete(), between
// setting done and closing the waiter channel, so handing the object to a
// new fork could let that stale close hit the new fork's waiter.  Stolen
// joins are rare (steals are rare) and are left to the garbage collector.
type join struct {
	// done is set by the thief after it has published its deposit.
	done atomic.Bool
	// waiter, when non-nil, is closed by the thief to wake the owner
	// parked at the join.
	waiter atomic.Pointer[chan struct{}]
	// deposit holds the stolen branch's transferred views, nil if the
	// branch failed.  It is written by the thief before done is set and read
	// by the owner after done is observed, so the atomic provides the
	// necessary ordering.
	deposit Deposit
	// panicVal carries a panic out of a stolen branch so the forking
	// worker can re-raise it after the join.  Written and read like deposit.
	panicVal any
	// next links joins in a worker's free list while recycled.
	next *join
}

// complete is called by the thief once the stolen continuation has finished
// and its views have been transferred out, or has failed with panicked and
// had them discarded.  done is set before the waiter is read, pairing with
// park's store-then-recheck, so the owner can never sleep on a channel
// complete will not close.
func (j *join) complete(d Deposit, panicked any) {
	j.deposit, j.panicVal = d, panicked
	j.done.Store(true)
	if ch := j.waiter.Load(); ch != nil {
		close(*ch)
	}
}

// finished reports whether the stolen branch has completed.
func (j *join) finished() bool { return j.done.Load() }

// park registers a wait channel and returns it.  The caller must re-check
// finished() after registering to close the race with a concurrent
// complete().
func (j *join) park() chan struct{} {
	ch := make(chan struct{})
	j.waiter.Store(&ch)
	return ch
}
