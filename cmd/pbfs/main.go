// Command pbfs runs the parallel breadth-first search application on a
// synthetic graph and reports timing for the serial reference and for PBFS
// under both reducer mechanisms.
//
// Usage:
//
//	pbfs -graph rmat23 -scale 0.01 -workers 8 -source 0
//	pbfs -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	cilkm "repro"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pbfs"
)

func main() {
	var (
		name    = flag.String("graph", "rmat23", "paper input name (see -list) or one of: path, star, grid3d, torus, rmat, random")
		scale   = flag.Float64("scale", 1.0/256, "graph scale relative to the paper's input sizes")
		size    = flag.Int("n", 1<<16, "vertex count for the generic generators (path, star, grid3d, torus, rmat, random)")
		workers = flag.Int("workers", 8, "worker count for the parallel runs")
		source  = flag.Int("source", 0, "BFS source vertex")
		seed    = flag.Int64("seed", 1, "generator seed")
		list    = flag.Bool("list", false, "list the paper's input graphs and exit")
	)
	flag.Parse()

	if *list {
		t := metrics.NewTable("Paper input graphs (Figure 10(b))", "name", "|V|", "|E|", "D", "lookups")
		for _, s := range graph.PaperInputs() {
			t.AddRow(s.Name, s.PaperVertices, s.PaperEdges, s.PaperDiameter, s.PaperLookups)
		}
		fmt.Print(t)
		return
	}

	g, err := buildGraph(*name, *scale, *size, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbfs: %v\n", err)
		os.Exit(2)
	}
	st := g.ComputeStats()
	fmt.Printf("graph: %s  |V|=%d  |E|=%d  diameter=%d  reachable=%d\n",
		g.Name(), st.Vertices, st.Edges, st.Diameter, st.Reachable)

	start := time.Now()
	serial := pbfs.Serial(g, int32(*source))
	fmt.Printf("serial BFS: %v (%d layers, %d reachable)\n",
		time.Since(start).Round(time.Microsecond), serial.Layers, serial.Reachable)

	for _, mech := range cilkm.Mechanisms() {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(*workers))
		start = time.Now()
		res, err := pbfs.Parallel(s, g, pbfs.Config{Source: int32(*source)})
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbfs: %v: %v\n", mech, err)
			os.Exit(1)
		}
		if err := pbfs.Validate(g, int32(*source), res); err != nil {
			fmt.Fprintf(os.Stderr, "pbfs: %v: result mismatch: %v\n", mech, err)
			os.Exit(1)
		}
		fmt.Printf("PBFS (%-13s P=%d): %v  lookups=%d  steals=%d\n",
			mech.String()+",", *workers, elapsed.Round(time.Microsecond),
			res.Lookups, s.Runtime().Stats().Steals)
		s.Close()
	}
}

func buildGraph(name string, scale float64, n int, seed int64) (*graph.Graph, error) {
	if spec, ok := graph.FindInput(name); ok {
		return spec.Build(scale, seed), nil
	}
	switch name {
	case "path":
		return graph.Path(n), nil
	case "star":
		return graph.Star(n), nil
	case "grid3d":
		side := 1
		for (side+1)*(side+1)*(side+1) <= n {
			side++
		}
		return graph.Grid3D(side, side, side), nil
	case "torus":
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		return graph.Torus2D(side), nil
	case "rmat":
		sc := 1
		for 1<<(sc+1) <= n {
			sc++
		}
		return graph.RMAT(sc, 16, 0.57, 0.19, 0.19, seed), nil
	case "random":
		return graph.Random(n, 8*n, seed), nil
	default:
		return nil, fmt.Errorf("unknown graph %q", name)
	}
}
