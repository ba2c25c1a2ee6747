// Package graph provides the compressed-sparse-row graphs, synthetic graph
// generators and serial BFS reference used by the PBFS experiment
// (Figure 10).  The paper evaluates PBFS on eight large sparse input graphs
// that are not redistributable here, so the package also defines synthetic
// stand-ins whose vertex count, edge count and diameter approximate each
// input at a configurable scale.
package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// Graph is an undirected graph in compressed-sparse-row form.
type Graph struct {
	// rowPtr has length NumVertices()+1; the neighbours of vertex v are
	// col[rowPtr[v]:rowPtr[v+1]].
	rowPtr []int64
	col    []int32
	name   string
}

// Name returns the graph's descriptive name.
func (g *Graph) Name() string { return g.name }

// SetName sets the graph's descriptive name.
func (g *Graph) SetName(name string) { g.name = name }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.rowPtr) - 1 }

// NumEdges returns the number of directed edges stored (an undirected edge
// counts twice).
func (g *Graph) NumEdges() int64 { return int64(len(g.col)) }

// NumUndirectedEdges returns the number of undirected edges.
func (g *Graph) NumUndirectedEdges() int64 { return g.NumEdges() / 2 }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int32) int {
	return int(g.rowPtr[v+1] - g.rowPtr[v])
}

// Neighbors returns the adjacency list of v.  The returned slice aliases
// the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.col[g.rowPtr[v]:g.rowPtr[v+1]]
}

// Edge is one undirected edge.
type Edge struct {
	U, V int32
}

// FromEdges builds a CSR graph with n vertices from an undirected edge
// list.  Self-loops are dropped and duplicate edges are kept (multigraph),
// matching how RMAT inputs are normally used for BFS benchmarking.
func FromEdges(n int, edges []Edge, name string) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: %d vertices", n)
	}
	deg := make([]int64, n+1)
	kept := 0
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside [0,%d)", e.U, e.V, n)
		}
		deg[e.U+1]++
		deg[e.V+1]++
		kept++
	}
	rowPtr := make([]int64, n+1)
	for v := 1; v <= n; v++ {
		rowPtr[v] = rowPtr[v-1] + deg[v]
	}
	col := make([]int32, rowPtr[n])
	next := make([]int64, n)
	copy(next, rowPtr[:n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		col[next[e.U]] = e.V
		next[e.U]++
		col[next[e.V]] = e.U
		next[e.V]++
	}
	g := &Graph{rowPtr: rowPtr, col: col, name: name}
	g.sortAdjacency()
	return g, nil
}

// sortAdjacency sorts every adjacency list so traversal order is
// deterministic.
func (g *Graph) sortAdjacency() {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		lo, hi := g.rowPtr[v], g.rowPtr[v+1]
		slices.Sort(g.col[lo:hi])
	}
}

// BFS runs a serial breadth-first search from source and returns the
// distance of every vertex (-1 for unreachable vertices) along with the
// number of layers explored (the eccentricity of the source within its
// component).
func (g *Graph) BFS(source int32) (dist []int32, layers int) {
	n := g.NumVertices()
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	if n == 0 || int(source) >= n || source < 0 {
		return dist, 0
	}
	dist[source] = 0
	frontier := []int32{source}
	depth := int32(0)
	for len(frontier) > 0 {
		depth++
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = depth
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist, int(depth - 1)
}

// Stats summarises a graph for experiment output, mirroring the columns of
// the paper's Figure 10(b).
type Stats struct {
	Name      string
	Vertices  int
	Edges     int64 // undirected edge count
	Diameter  int   // eccentricity of vertex 0 within its component
	Reachable int   // vertices reachable from vertex 0
	AvgDegree float64
}

// ComputeStats measures the graph from vertex 0.
func (g *Graph) ComputeStats() Stats {
	dist, layers := g.BFS(0)
	reach := 0
	for _, d := range dist {
		if d >= 0 {
			reach++
		}
	}
	avg := 0.0
	if g.NumVertices() > 0 {
		avg = float64(g.NumEdges()) / float64(g.NumVertices())
	}
	return Stats{
		Name:      g.name,
		Vertices:  g.NumVertices(),
		Edges:     g.NumUndirectedEdges(),
		Diameter:  layers,
		Reachable: reach,
		AvgDegree: avg,
	}
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

// Path returns a path graph on n vertices (diameter n-1); useful in tests.
func Path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{int32(i), int32(i + 1)})
	}
	g, _ := FromEdges(n, edges, fmt.Sprintf("path%d", n))
	return g
}

// Star returns a star graph: vertex 0 connected to every other vertex.
func Star(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{0, int32(i)})
	}
	g, _ := FromEdges(n, edges, fmt.Sprintf("star%d", n))
	return g
}

// CompleteBinaryTree returns a complete binary tree on n vertices.
func CompleteBinaryTree(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{int32((i - 1) / 2), int32(i)})
	}
	g, _ := FromEdges(n, edges, fmt.Sprintf("tree%d", n))
	return g
}

// Grid3D returns an nx × ny × nz grid with 6-neighbour connectivity, the
// synthetic analogue of the paper's grid3d200 input.
func Grid3D(nx, ny, nz int) *Graph {
	id := func(x, y, z int) int32 { return int32((x*ny+y)*nz + z) }
	var edges []Edge
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				if x+1 < nx {
					edges = append(edges, Edge{id(x, y, z), id(x+1, y, z)})
				}
				if y+1 < ny {
					edges = append(edges, Edge{id(x, y, z), id(x, y+1, z)})
				}
				if z+1 < nz {
					edges = append(edges, Edge{id(x, y, z), id(x, y, z+1)})
				}
			}
		}
	}
	g, _ := FromEdges(nx*ny*nz, edges, fmt.Sprintf("grid3d-%dx%dx%d", nx, ny, nz))
	return g
}

// Torus2D returns an n × n torus (every vertex has degree 4), a
// moderate-diameter mesh like the finite-element graphs in the paper.
func Torus2D(n int) *Graph {
	id := func(x, y int) int32 { return int32(x*n + y) }
	var edges []Edge
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			edges = append(edges, Edge{id(x, y), id((x+1)%n, y)})
			edges = append(edges, Edge{id(x, y), id(x, (y+1)%n)})
		}
	}
	g, _ := FromEdges(n*n, edges, fmt.Sprintf("torus2d-%dx%d", n, n))
	return g
}

// RMAT generates a recursive-matrix (R-MAT) power-law graph with 2^scale
// vertices and approximately edgeFactor * 2^scale undirected edges, the
// synthetic analogue of the paper's rmat23 and wikipedia inputs.
func RMAT(scale int, edgeFactor int, a, b, c float64, seed int64) *Graph {
	n := 1 << scale
	m := n * edgeFactor
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left quadrant: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges = append(edges, Edge{int32(u), int32(v)})
	}
	g, _ := FromEdges(n, edges, fmt.Sprintf("rmat-s%d-e%d", scale, edgeFactor))
	return g
}

// Random returns an Erdős–Rényi style random graph with n vertices and m
// undirected edges.
func Random(n int, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		edges = append(edges, Edge{u, v})
	}
	g, _ := FromEdges(n, edges, fmt.Sprintf("random-%d-%d", n, m))
	return g
}

// PreferentialAttachment returns a Barabási–Albert style graph in which
// each new vertex attaches to k existing vertices chosen proportionally to
// degree; it produces the heavy-tailed degree distributions of web-like
// graphs such as the paper's wikipedia input.
func PreferentialAttachment(n, k int, seed int64) *Graph {
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	// targets holds one entry per edge endpoint, so sampling uniformly
	// from it is sampling proportionally to degree.
	targets := make([]int32, 0, 2*n*k)
	start := k + 1
	if start > n {
		start = n
	}
	// Seed with a small clique.
	for u := 0; u < start; u++ {
		for v := u + 1; v < start; v++ {
			edges = append(edges, Edge{int32(u), int32(v)})
			targets = append(targets, int32(u), int32(v))
		}
	}
	for u := start; u < n; u++ {
		chosen := make(map[int32]bool, k)
		for len(chosen) < k {
			var t int32
			if len(targets) == 0 {
				t = int32(rng.Intn(u))
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if int(t) == u {
				continue
			}
			chosen[t] = true
		}
		for t := range chosen {
			edges = append(edges, Edge{int32(u), t})
			targets = append(targets, int32(u), t)
		}
	}
	g, _ := FromEdges(n, edges, fmt.Sprintf("prefattach-%d-%d", n, k))
	return g
}

// Ladder returns a long "ladder" graph (2 × n grid), which has a large
// diameter relative to its size, approximating high-diameter meshes such as
// freescale1.
func Ladder(n int) *Graph {
	var edges []Edge
	id := func(side, i int) int32 { return int32(2*i + side) }
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{id(0, i), id(1, i)})
		if i+1 < n {
			edges = append(edges, Edge{id(0, i), id(0, i+1)})
			edges = append(edges, Edge{id(1, i), id(1, i+1)})
		}
	}
	g, _ := FromEdges(2*n, edges, fmt.Sprintf("ladder-%d", n))
	return g
}
