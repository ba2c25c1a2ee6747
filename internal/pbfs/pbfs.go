// Package pbfs implements the parallel breadth-first search application the
// paper uses to evaluate reducers (Figure 10): the work-efficient PBFS
// algorithm of Leiserson and Schardl, which explores the graph layer by
// layer, keeping the current and next frontier in bag data structures that
// are declared as reducers so parallel branches can insert newly discovered
// vertices without determinacy races.
package pbfs

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// Config selects the traversal's input.  There is no grain to tune: a bag
// block (bag.BlockSize vertices) is the unit of serial work.
type Config struct {
	// Source is the BFS source vertex.
	Source int32
}

// Result holds the output of one BFS run.
type Result struct {
	// Dist is the distance of every vertex from the source (-1 when
	// unreachable).
	Dist []int32
	// Layers is the number of BFS layers explored.
	Layers int
	// Reachable is the number of vertices reached.
	Reachable int
	// Lookups is the number of reducer lookups Parallel's layers made: one
	// Handle.View per block the frontier's Bag.Blocks lists, so the sum
	// over processed layers of ⌈frontier size / bag.BlockSize⌉, counted by
	// the root strand between layers (zero for Serial).  The root strand's
	// take of each next frontier is not one of them.
	Lookups int64
}

// bagMonoid is the typed reducer monoid for bags: identity is the empty
// bag and the reduce operation is bag union (which is associative; PBFS
// does not depend on element order).
type bagMonoid struct{}

func (bagMonoid) Identity() *bag.Bag[int32] { return bag.New[int32]() }
func (bagMonoid) Reduce(left, right *bag.Bag[int32]) *bag.Bag[int32] {
	left.Union(right)
	return left
}

// BagTypedMonoid returns the typed bag-union monoid used for frontier
// reducers, for callers building their own bag reducer handles.
func BagTypedMonoid() reducers.TypedMonoid[bag.Bag[int32]] { return bagMonoid{} }

// BagMonoid returns the bag-union monoid built for the raw engine
// interface, for callers registering through the raw core.Engine API.
func BagMonoid() core.Monoid { return reducers.AdaptMonoid[bag.Bag[int32]](bagMonoid{}) }

// Serial runs the reference serial BFS.
func Serial(g *graph.Graph, source int32) *Result {
	dist, layers := g.BFS(source)
	return &Result{Dist: dist, Layers: layers, Reachable: countReachable(dist)}
}

// Parallel runs PBFS on the given session as one Session.Run whose layers
// are range loops over the frontier's blocks.  The session's reducer
// mechanism (memory-mapped or hypermap) is whatever the session was built
// with, which is exactly the knob the paper's Figure 10 turns.
func Parallel(s *core.Session, g *graph.Graph, cfg Config) (*Result, error) {
	if g == nil {
		return nil, errors.New("pbfs: nil graph")
	}
	n := g.NumVertices()
	if n == 0 {
		return &Result{Dist: nil, Layers: 0}, nil
	}
	if cfg.Source < 0 || int(cfg.Source) >= n {
		return nil, fmt.Errorf("pbfs: source %d outside [0,%d)", cfg.Source, n)
	}
	r := &runner{g: g, dist: make([]int32, n)}
	// The search is one Session.Run, and it orders every access to dist:
	// the fill below is plain stores, made before the Run publishes the
	// slice to any worker (an atomic store is an XCHG on amd64, one per
	// vertex); inside the Run vertices are claimed concurrently, so every
	// access there is an atomic load or compare-and-swap; after the Run has
	// returned no worker touches the slice again, so Validate reads it with
	// plain loads.
	for i := range r.dist {
		//cilkvet:allow atomicfield -- plain fill before the Session.Run below publishes r.dist, which orders these stores before its atomic accesses
		r.dist[i] = -1
	}
	//cilkvet:allow atomicfield -- part of the same fill before the Run
	r.dist[cfg.Source] = 0

	// The next-layer frontier is a typed bag reducer handle; the current
	// layer is a plain bag owned by the root strand.
	next, err := reducers.TryNewHandle[bag.Bag[int32]](s.Engine(), bagMonoid{})
	if err != nil {
		return nil, fmt.Errorf("pbfs: registering frontier reducer: %w", err)
	}
	r.next = next
	defer r.next.Close()

	res := &Result{}
	if err := s.Run(func(c *sched.Context) { r.search(c, cfg.Source, res) }); err != nil {
		return nil, err
	}
	res.Dist = r.dist
	return res, nil
}

// search is the root strand of a traversal: one range loop per layer over
// the frontier's blocks, and between layers it takes the next frontier out
// of its own view.  After a layer's join that view holds every vertex the
// layer discovered, merged in serial order from whichever workers ran its
// blocks; Union moves them into current, emptied in place, and leaves the
// view the empty bag, the monoid's identity, for the next layer to fill.
// The block list and the current bag are reused across layers.  It counts
// the layers, the lookups and the reachable vertices into res: every
// vertex reached is in exactly one frontier, so Reachable is the sum of
// the frontiers' sizes, with no scan of dist after the search.
//
// Blocks lists the frontier in the order its vertices were found.  A range
// split gives each worker a contiguous part of that list, and the next
// frontier lists the left part's discoveries before the right part's, so a
// worker tends to keep its region of the graph, and of dist, from layer to
// layer instead of pulling the other worker's cache lines.
func (r *runner) search(c *sched.Context, source int32, res *Result) {
	current := bag.New[int32]()
	current.Insert(source)
	leaf := r.processBlock
	for depth := int32(1); !current.IsEmpty(); depth++ {
		res.Reachable += current.Len()
		r.depth = depth
		r.blocks = current.Blocks(r.blocks[:0])
		// processBlock looks the next frontier up once per block; a
		// one-block layer runs inline, without a fork.
		res.Lookups += int64(len(r.blocks))
		c.ParallelForGrain(0, len(r.blocks), 1, leaf)
		*current = bag.Bag[int32]{}
		current.Union(r.next.View(c))
		if !current.IsEmpty() {
			res.Layers++
		}
	}
}

// runner carries the traversal state shared by all workers.
type runner struct {
	g      *graph.Graph
	next   reducers.Handle[bag.Bag[int32]]
	dist   []int32
	depth  int32
	blocks [][]int32 // the current layer's blocks, set by the root strand
}

// processBlock is the leaf task, one iteration of a layer's range loop: it
// relaxes every edge of every vertex in block i of the frontier, claiming
// undiscovered neighbours with an atomic compare-and-swap and inserting
// them into the calling context's local view of the next-frontier bag.  The
// view is looked up through the typed handle once per block, mirroring how
// the PBFS code in the paper hoists its bag reducer access out of the
// serial chunk.
func (r *runner) processBlock(c *sched.Context, i int) {
	view := r.next.View(c)
	depth, dist := r.depth, r.dist
	for _, v := range r.blocks[i] {
		for _, w := range r.g.Neighbors(v) {
			if atomic.LoadInt32(&dist[w]) >= 0 {
				continue
			}
			if atomic.CompareAndSwapInt32(&dist[w], -1, depth) {
				view.Insert(w)
			}
		}
	}
}

// Validate checks a parallel result against the serial reference and
// returns an error describing the first mismatch.
func Validate(g *graph.Graph, source int32, got *Result) error {
	want := Serial(g, source)
	if got.Layers != want.Layers {
		return fmt.Errorf("pbfs: layers = %d, want %d", got.Layers, want.Layers)
	}
	if got.Reachable != want.Reachable {
		return fmt.Errorf("pbfs: reachable = %d, want %d", got.Reachable, want.Reachable)
	}
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] {
			return fmt.Errorf("pbfs: dist[%d] = %d, want %d", v, got.Dist[v], want.Dist[v])
		}
	}
	return nil
}

func countReachable(dist []int32) int {
	n := 0
	for _, d := range dist {
		if d >= 0 {
			n++
		}
	}
	return n
}
