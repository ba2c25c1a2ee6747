// Package metrics is a stub of the runtime's metrics package: only
// PaddedCounter's method set matters to the analyzer.
package metrics

import "sync/atomic"

type PaddedCounter struct {
	n atomic.Int64
	_ [56]byte
}

func (c *PaddedCounter) Add(delta int64) int64 { return c.n.Add(delta) }

func (c *PaddedCounter) Load() int64 { return c.n.Load() }

func (c *PaddedCounter) Store(v int64) { c.n.Store(v) }

func (c *PaddedCounter) Max(v int64) {
	for {
		cur := c.n.Load()
		if v <= cur || c.n.CompareAndSwap(cur, v) {
			return
		}
	}
}
