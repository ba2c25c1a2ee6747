package main

import (
	"fmt"
	"time"

	cilkm "repro"
	"repro/internal/graph"
	"repro/internal/pbfs"
)

// pbfsWL is pbfs_grid: whole breadth-first searches of a 3-D grid, the
// paper's application benchmark.  One op is one traversed edge; one BFS is
// the individually timed unit.
type pbfsWL struct {
	s      *cilkm.Session
	g      *graph.Graph
	source int32
	bfs    int64
}

// gridSide is the grid's edge length: 10⁶ vertices at full size.
func gridSide(p params) int { return p.pick(100, 16) }

func newPBFS(p params) instance {
	n := gridSide(p)
	return newPBFSOn(p, graph.Grid3D(n, n, n), n)
}

// newPBFSOn builds the workload on an already generated grid of side n.
// The source is one of the grid's eight corners, chosen by the seed: every
// corner gives the same 3(n−1) layers, so the seed changes the input and
// not the amount of work.
func newPBFSOn(p params, g *graph.Graph, n int) *pbfsWL {
	corner := p.rng(1).IntN(8)
	coord := func(bit int) int { return (corner >> bit & 1) * (n - 1) }
	source := int32((coord(2)*n+coord(1))*n + coord(0))
	return &pbfsWL{s: cilkm.New(p.options()...), g: g, source: source}
}

func (w *pbfsWL) one(r *record) {
	edges := w.g.NumEdges()
	r.attempted += edges
	t0 := now()
	res, err := pbfs.Parallel(w.s, w.g, pbfs.Config{Source: w.source})
	t1 := now()
	r.busy += t1 - t0
	if err == nil {
		err = pbfs.Validate(w.g, w.source, res)
	}
	if err != nil {
		r.fail(edges, "BFS %d from %d: %v", w.bfs, w.source, err)
		return
	}
	r.ops += edges
	r.lat = append(r.lat, t1-t0)
	t2 := now()
	root := r.tr.add("bfs", t0, t2, -1, w.bfs)
	r.tr.add("pbfs.Parallel", t0, t1, root, w.bfs)
	r.tr.add("pbfs.Validate", t1, t2, root, w.bfs)
	w.bfs++
}

func (w *pbfsWL) warm(r *record) { w.one(r) }

// repeat runs whole searches until d has passed; validation runs between
// them, outside the timed window.
func (w *pbfsWL) repeat(d time.Duration, r *record) {
	for deadline := now() + int64(d); now() < deadline; {
		w.one(r)
	}
}

func (w *pbfsWL) finish() []error {
	var errs []error
	if err := w.s.Quiescent(); err != nil {
		errs = append(errs, fmt.Errorf("Session.Quiescent: %w", err))
	}
	w.s.Close()
	return errs
}

func (w *pbfsWL) counters() counters { return snapshot(w.s.Engine(), w.s.Runtime(), nil) }
