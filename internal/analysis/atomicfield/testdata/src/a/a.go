package a

import "sync/atomic"

type counter struct {
	n    int64
	dist []int32
	name string
}

func (c *counter) inc() { atomic.AddInt64(&c.n, 1) }

func (c *counter) get() int64 { return atomic.LoadInt64(&c.n) }

func (c *counter) bad() int64 { return c.n } // want `field counter\.n is accessed with sync/atomic`

func (c *counter) badStore() { c.n = 0 } // want `field counter\.n is accessed with sync/atomic`

func (c *counter) reset() {
	c.n = 0 //cilkvet:allow atomicfield -- fixture: counter not yet published to other goroutines
}

func (c *counter) relax(i int) { atomic.StoreInt32(&c.dist[i], 1) }

func (c *counter) read(i int) bool {
	return atomic.CompareAndSwapInt32(&c.dist[i], 0, 1)
}

func (c *counter) badElem(i int) int32 { return c.dist[i] } // want `elements of field counter\.dist are accessed with sync/atomic`

func (c *counter) size() int { return len(c.dist) } // header use: not flagged

func (c *counter) share() []int32 { return c.dist } // header use: not flagged

func (c *counter) badRange() (s int32) {
	for _, v := range c.dist { // want `elements of field counter\.dist are accessed with sync/atomic`
		s += v
	}
	return
}

func (c *counter) okIndexRange() (n int) {
	for i := range c.dist { // index-only range: not flagged
		n += i
	}
	return
}

func (c *counter) okName() string { return c.name } // untracked field

func claim(vis []uint32, ws []int32) (n int) {
	for _, w := range ws {
		if atomic.OrUint32(&vis[w>>5], 1<<(w&31))&(1<<(w&31)) == 0 { // want `result of sync/atomic atomic\.OrUint32 is used`
			n++
		}
	}
	return n
}

func claimTyped(bits []atomic.Uint32, ws []int32) (n int) {
	for _, w := range ws {
		old := bits[w>>5].Or(1 << (w & 31)) // want `result of sync/atomic \(\*atomic\.Uint32\)\.Or is used`
		if old&(1<<(w&31)) == 0 {
			n++
		}
	}
	return n
}

func usedAnd(x *int64) int64 { return atomic.AndInt64(x, 3) } // want `result of sync/atomic atomic\.AndInt64 is used`

func setAll(vis []uint32, bits []atomic.Uint64, ws []int32) {
	for _, w := range ws {
		atomic.OrUint32(&vis[w>>5], 1<<(w&31)) // discarded: not flagged
		bits[0].And(^uint64(1))                // discarded: not flagged
		_ = atomic.OrUint32(&vis[0], 1)        // discarded: not flagged
		_ = bits[1].Or(2)                      // discarded: not flagged
	}
	defer atomic.AndUint32(&vis[0], 0) // discarded: not flagged
}
