// PBFS example: parallel breadth-first search over a synthetic power-law
// graph using a bag reducer for the frontier, the application benchmark
// from the paper's Section 8.
//
// Run it with:
//
//	go run ./examples/pbfs -scale 16 -edgefactor 8 -workers 8
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	cilkm "repro"
	"repro/internal/graph"
	"repro/internal/pbfs"
)

func main() {
	var (
		scale      = flag.Int("scale", 16, "log2 of the number of vertices in the R-MAT graph")
		edgeFactor = flag.Int("edgefactor", 8, "average number of edges per vertex")
		workers    = flag.Int("workers", 8, "number of workers")
		source     = flag.Int("source", 0, "BFS source vertex")
		seed       = flag.Int64("seed", 12345, "graph generator seed")
	)
	flag.Parse()

	fmt.Printf("generating R-MAT graph: 2^%d vertices, edge factor %d...\n", *scale, *edgeFactor)
	g := graph.RMAT(*scale, *edgeFactor, 0.57, 0.19, 0.19, *seed)
	st := g.ComputeStats()
	fmt.Printf("graph: |V|=%d |E|=%d diameter=%d reachable=%d\n",
		st.Vertices, st.Edges, st.Diameter, st.Reachable)

	// Serial reference.
	start := time.Now()
	serial := pbfs.Serial(g, int32(*source))
	fmt.Printf("serial BFS:              %10v  (%d layers)\n",
		time.Since(start).Round(time.Microsecond), serial.Layers)

	// PBFS under both reducer mechanisms.
	for _, mech := range cilkm.Mechanisms() {
		session := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(*workers))
		start = time.Now()
		res, err := pbfs.Parallel(session, g, pbfs.Config{Source: int32(*source)})
		elapsed := time.Since(start)
		if err != nil {
			log.Fatalf("%v: %v", mech, err)
		}
		if err := pbfs.Validate(g, int32(*source), res); err != nil {
			log.Fatalf("%v: validation failed: %v", mech, err)
		}
		fmt.Printf("PBFS (%-13s P=%d): %10v  (%d reducer lookups, %d steals)\n",
			mech.String()+",", *workers, elapsed.Round(time.Microsecond),
			res.Lookups, session.Runtime().Stats().Steals)
		session.Close()
	}
	fmt.Println("parallel distances match the serial BFS ✓")
}
