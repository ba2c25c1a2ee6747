package main

import (
	"fmt"
	"time"

	cilkm "repro"
	"repro/internal/reducers"
)

const (
	cycleReducers = 256
	cycleGrain    = 16
)

// cycleWL is trace_cycle: every op is one Session.Run that touches 256
// persistent reducers once each, writing the even ones and only reading
// the odd ones, so each Run pays the first lookups, the view transferal
// and a root hypermerge with half its views elidable.
type cycleWL struct {
	s      *cilkm.Session
	hs     [cycleReducers]*reducers.Add[int64]
	vals   [cycleReducers]int64
	runs   int64
	sink   []int64 // per worker, keeps the read-only loads alive
	body   func(*cilkm.Context)
	warmup int
	traced bool
	span   [2]int64
}

func newCycle(p params) instance {
	w := &cycleWL{s: cilkm.New(p.options()...), warmup: p.pick(2000, 20)}
	rng := p.rng(1)
	for i := range w.hs {
		w.hs[i] = cilkm.NewAdd[int64](w.s.Engine())
		w.vals[i] = 1 + rng.Int64N(4)
	}
	w.sink = make([]int64, 8*w.s.Workers())
	leaf := func(c *cilkm.Context, i int) {
		if i&1 == 0 {
			w.hs[i].Add(c, w.vals[i])
		} else {
			w.sink[8*c.WorkerID()] += *w.hs[i].ReadView(c)
		}
	}
	w.body = func(c *cilkm.Context) {
		if w.traced {
			w.span[0] = now()
		}
		c.ParallelForGrain(0, cycleReducers, cycleGrain, leaf)
		if w.traced {
			w.span[1] = now()
		}
	}
	return w
}

func (w *cycleWL) run(r *record) {
	r.attempted++
	t0 := now()
	err := w.s.Run(w.body)
	t1 := now()
	if err != nil {
		r.fail(1, "Session.Run: %v", err)
		return
	}
	r.ops++
	r.lat = append(r.lat, t1-t0)
	root := r.tr.add("Session.Run", t0, t1, -1, w.runs)
	r.tr.add("body", w.span[0], w.span[1], root, w.runs)
	w.runs++
}

func (w *cycleWL) warm(r *record) {
	for i := 0; i < w.warmup; i++ {
		w.run(r)
	}
}

func (w *cycleWL) repeat(d time.Duration, r *record) {
	w.traced = r.tr != nil
	start := now()
	for deadline := start + int64(d); now() < deadline; {
		w.run(r)
	}
	r.busy += now() - start
}

func (w *cycleWL) finish() []error {
	var errs []error
	for i, h := range w.hs {
		want := w.runs * w.vals[i]
		if i&1 == 1 {
			want = 0
		}
		if got := h.Value(); got != want && len(errs) == 0 {
			errs = append(errs, fmt.Errorf("reducer %d = %d after %d runs, want %d", i, got, w.runs, want))
		}
		h.Close()
	}
	if err := w.s.Quiescent(); err != nil {
		errs = append(errs, fmt.Errorf("Session.Quiescent: %w", err))
	}
	w.s.Close()
	return errs
}

func (w *cycleWL) counters() counters { return snapshot(w.s.Engine(), w.s.Runtime(), nil) }
