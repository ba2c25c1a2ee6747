package main

import (
	"fmt"
	"time"

	cilkm "repro"
	"repro/internal/core"
	"repro/internal/reducers"
)

const (
	chunkLen       = 256 // updates per chunk
	chunksPerBlock = 256 // chunks per individually timed block
	blockUpdates   = chunkLen * chunksPerBlock
	blockGrain     = 8    // blocks per ParallelFor leaf: 2048 chunks, ParallelFor's own cap
	hotHandles     = 64   // update_hot rotates over these; must divide chunkLen
	probeReducers  = 1024 // update_probe rotates over these; a multiple of chunkLen
)

// updateWL is update_hot and update_probe: a ParallelFor of reducer
// updates, through the typed handles' view cache (hot) or straight through
// Engine.LookupWord so that every update reaches the engine (probe).
type updateWL struct {
	probe    bool
	s        *cilkm.Session
	eng      cilkm.Engine
	hs       []*reducers.Add[int64]
	rs       []*core.Reducer
	vals     [chunkLen]int64 // update values, drawn from the seed
	chunkSum int64
	blocks   int   // per Session.Run: 8.4·10⁶ updates, a tenth of a repeat or less
	chunks   int64 // executed so far, for the Σ check
	lat      [][]int64
	body     func(*cilkm.Context)
	traced   bool
	bodySpan [2]int64
}

func newUpdate(p params, probe bool) instance {
	u := &updateWL{probe: probe, s: cilkm.New(p.options()...), blocks: p.pick(128, 8)}
	u.eng = u.s.Engine()
	n := hotHandles
	if probe {
		n = probeReducers
	}
	u.hs = make([]*reducers.Add[int64], n)
	u.rs = make([]*core.Reducer, n)
	for i := range u.hs {
		u.hs[i] = cilkm.NewAdd[int64](u.eng)
		u.rs[i] = u.hs[i].Reducer()
	}
	rng := p.rng(1)
	for i := range u.vals {
		u.vals[i] = 1 + rng.Int64N(4)
		u.chunkSum += u.vals[i]
	}
	u.lat = make([][]int64, u.s.Workers())
	for i := range u.lat {
		u.lat[i] = make([]int64, 0, 1<<16)
	}
	block := u.hotBlock
	if probe {
		block = u.probeBlock
	}
	u.body = func(c *cilkm.Context) {
		if u.traced {
			u.bodySpan[0] = now()
		}
		c.ParallelForGrain(0, u.blocks, blockGrain, block)
		if u.traced {
			u.bodySpan[1] = now()
		}
	}
	return u
}

func (u *updateWL) hotBlock(c *cilkm.Context, _ int) {
	hs, vals := u.hs, &u.vals
	t0 := now()
	for k := 0; k < chunksPerBlock; k++ {
		for j := 0; j < chunkLen; j++ {
			hs[j&(hotHandles-1)].Add(c, vals[j])
		}
	}
	id := c.WorkerID()
	u.lat[id] = append(u.lat[id], now()-t0)
}

func (u *updateWL) probeBlock(c *cilkm.Context, _ int) {
	eng, rs, vals := u.eng, u.rs, &u.vals
	t0 := now()
	for k := 0; k < chunksPerBlock; k++ {
		base := (k * chunkLen) & (probeReducers - 1)
		for j := 0; j < chunkLen; j++ {
			word, _ := eng.LookupWord(c, rs[base+j], 0, true)
			*int64At(word) += vals[j]
		}
	}
	id := c.WorkerID()
	u.lat[id] = append(u.lat[id], now()-t0)
}

// round is one Session.Run over u.blocks blocks.
func (u *updateWL) round(r *record, op int64) {
	u.traced = r.tr != nil
	updates := int64(u.blocks) * blockUpdates
	r.attempted += updates
	t0 := now()
	err := u.s.Run(u.body)
	t1 := now()
	r.busy += t1 - t0
	if err != nil {
		r.fail(updates, "Session.Run: %v", err)
		return
	}
	r.ops += updates
	u.chunks += int64(u.blocks) * chunksPerBlock
	for i := range u.lat {
		r.lat = append(r.lat, u.lat[i]...)
		u.lat[i] = u.lat[i][:0]
	}
	root := r.tr.add("Session.Run", t0, t1, -1, op)
	r.tr.add("body", u.bodySpan[0], u.bodySpan[1], root, op)
}

// warm is eight rounds: long enough for set-up time to be a measurement.
func (u *updateWL) warm(r *record) {
	for op := int64(0); op < 8; op++ {
		u.round(r, op)
	}
}

func (u *updateWL) repeat(d time.Duration, r *record) {
	deadline := now() + int64(d)
	for op := int64(0); now() < deadline; op++ {
		u.round(r, op)
	}
}

func (u *updateWL) finish() []error {
	var errs []error
	var sum int64
	for _, h := range u.hs {
		sum += h.Value()
	}
	if want := u.chunks * u.chunkSum; sum != want {
		errs = append(errs, fmt.Errorf("Σ of %d reducers = %d, want %d", len(u.hs), sum, want))
	}
	for _, h := range u.hs {
		h.Close()
	}
	if err := u.s.Quiescent(); err != nil {
		errs = append(errs, fmt.Errorf("Session.Quiescent: %w", err))
	}
	u.s.Close()
	return errs
}

func (u *updateWL) counters() counters { return snapshot(u.eng, u.s.Runtime(), nil) }
