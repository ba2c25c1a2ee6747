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
	// Handle.View per frontier block, so the sum over processed layers of
	// ⌈frontier size / bag.BlockSize⌉, counted by the root strand between
	// layers (zero for Serial).  The root strand's take of each next
	// frontier is not one of them.
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
// are fork-joins.  The session's reducer mechanism (memory-mapped or
// hypermap) is whatever the session was built with, which is exactly the
// knob the paper's Figure 10 turns.
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
	// returned no worker touches the slice again, so countReachable and
	// Validate read it with plain loads.
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
	res.Dist, res.Reachable = r.dist, countReachable(r.dist)
	return res, nil
}

// search is the root strand of a traversal: one fork-join per layer, and
// between layers it takes the next frontier out of its own view.  After a
// layer's join that view holds every vertex the layer discovered, merged
// in serial order from whichever workers ran its branches; Union moves them
// into a fresh bag and leaves the view the empty bag, the monoid's
// identity, for the next layer to fill.  It counts the layers and the
// lookups into res.
func (r *runner) search(c *sched.Context, source int32, res *Result) {
	current := bag.New[int32]()
	current.Insert(source)
	for depth := int32(1); !current.IsEmpty(); depth++ {
		r.depth = depth
		// processBlock looks the next frontier up once per block.
		res.Lookups += int64((current.Len() + bag.BlockSize - 1) / bag.BlockSize)
		r.processLayer(c, current)
		current = bag.New[int32]()
		current.Union(r.next.View(c))
		if !current.IsEmpty() {
			res.Layers++
		}
	}
}

// runner carries the traversal state shared by all workers.
type runner struct {
	g     *graph.Graph
	next  reducers.Handle[bag.Bag[int32]]
	dist  []int32
	depth int32
}

// processLayer explores every vertex in the current frontier in parallel:
// one branch per pennant, largest last so a thief takes the most work, and
// one for the hopper.
func (r *runner) processLayer(c *sched.Context, current *bag.Bag[int32]) {
	pennants := current.Pennants()
	hopper := current.Hopper()
	branches := make([]func(*sched.Context), 0, len(pennants)+1)
	if len(hopper) > 0 {
		branches = append(branches, func(c *sched.Context) { r.processBlock(c, hopper) })
	}
	for _, p := range pennants {
		branches = append(branches, func(c *sched.Context) { r.processSubtree(c, p.Subtree()) })
	}
	c.ForkN(branches...)
}

// processSubtree explores a pennant subtree: a leaf is one block, an inner
// node forks its left child against its right child and its own block.  A
// pennant's root has no right child, so there the second branch is just the
// root's block.
func (r *runner) processSubtree(c *sched.Context, st bag.Subtree[int32]) {
	if st.Empty() {
		return
	}
	left, right := st.Children()
	if left.Empty() {
		r.processBlock(c, st.Block())
		return
	}
	c.Fork(
		func(c *sched.Context) { r.processSubtree(c, left) },
		func(c *sched.Context) {
			r.processSubtree(c, right)
			r.processBlock(c, st.Block())
		},
	)
}

// processBlock is the leaf task: it relaxes every edge of every vertex in
// one block, claiming undiscovered neighbours with an atomic
// compare-and-swap and inserting them into the calling context's local view
// of the next-frontier bag.  The view is looked up through the typed handle
// once per block, mirroring how the PBFS code in the paper hoists its bag
// reducer access out of the serial chunk.
func (r *runner) processBlock(c *sched.Context, block []int32) {
	view := r.next.View(c)
	depth, dist := r.depth, r.dist
	for _, v := range block {
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
