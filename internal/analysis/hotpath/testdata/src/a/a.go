package a

import (
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

type recorder struct {
	counts atomic.Int64
	raw    int64
	flag   atomic.Bool
	ptr    atomic.Pointer[worker]
	mu     sync.Mutex
	rw     sync.RWMutex
}

// stop is the parent's Recorder.Stop shape: one locked add per event.  It
// is only a finding once it is tagged — the rule is direct-call only.
//
//cilkvet:hotpath
func (r *recorder) stop() {
	r.counts.Add(1) // want `stop is marked //cilkvet:hotpath but calls atomic\.Int64\.Add`
}

// stopUntagged is the same body without the tag.
func (r *recorder) stopUntagged() { r.counts.Add(1) }

type worker struct {
	rec   *recorder
	tally [4]int64
	live  atomic.Pointer[recorder]
}

// lookupSlow with the regression reintroduced: a locked add per first
// lookup, directly and through every flavour of sync/atomic.
//
//cilkvet:hotpath
func (w *worker) lookupSlow() {
	w.tally[0]++                                 // owner-only tick: fine
	w.rec.counts.Add(1)                          // want `lookupSlow is marked //cilkvet:hotpath but calls atomic\.Int64\.Add`
	atomic.AddInt64(&w.rec.raw, 1)               // want `calls atomic\.AddInt64`
	w.rec.flag.Store(true)                       // want `calls atomic\.Bool\.Store`
	w.rec.counts.CompareAndSwap(0, 1)            // want `calls atomic\.Int64\.CompareAndSwap`
	w.rec.counts.Swap(2)                         // want `calls atomic\.Int64\.Swap`
	atomic.StoreInt64(&w.rec.raw, 0)             // want `calls atomic\.StoreInt64`
	atomic.CompareAndSwapInt64(&w.rec.raw, 0, 1) // want `calls atomic\.CompareAndSwapInt64`
	w.rec.ptr.Store(w)                           // want `calls atomic\.Pointer\.Store`
	w.rec.mu.Lock()                              // want `calls sync\.Mutex\.Lock`
	w.rec.mu.Unlock()                            // want `calls sync\.Mutex\.Unlock`
	w.rec.rw.RLock()                             // want `calls sync\.RWMutex\.RLock`
	w.rec.rw.RUnlock()                           // want `calls sync\.RWMutex\.RUnlock`
}

// lookupWord is the legal shape: plain ticks, atomic loads, and calls into
// untagged functions, whatever those do.
//
//cilkvet:hotpath
func (w *worker) lookupWord() int64 {
	w.tally[1]++
	if w.live.Load() == nil || !w.rec.flag.Load() {
		w.rec.stopUntagged()
	}
	return w.rec.counts.Load() + atomic.LoadInt64(&w.rec.raw)
}

// elide walks with a callback: function literals belong to the tagged
// function.
//
//cilkvet:hotpath
func (w *worker) elide(each func(func(int))) {
	each(func(i int) {
		w.tally[2]++
		w.rec.counts.Add(int64(i)) // want `elide is marked //cilkvet:hotpath but calls atomic\.Int64\.Add`
	})
}

// flush is the idiom's other half and is not tagged: it runs once per
// trace, where the locked add belongs.
func (w *worker) flush() {
	w.rec.counts.Add(w.tally[0])
	w.tally[0] = 0
}

//cilkvet:hotpath
func (w *worker) allowed() {
	w.rec.counts.Add(1) //cilkvet:allow hotpath -- fixture: a justified exception is honoured
}

// staleDrop is the shape the padded counter hid: a locked add one method
// call away.  Its Load stays legal.
//
//cilkvet:hotpath
func (w *worker) staleDrop(c *metrics.PaddedCounter) int64 {
	c.Add(1)   // want `staleDrop is marked //cilkvet:hotpath but calls metrics\.PaddedCounter\.Add`
	c.Store(0) // want `calls metrics\.PaddedCounter\.Store`
	c.Max(2)   // want `calls metrics\.PaddedCounter\.Max`
	return c.Load()
}
