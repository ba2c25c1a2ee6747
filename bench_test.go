// Benchmarks that regenerate the paper's tables and figures as testing.B
// benchmarks, one benchmark (with sub-benchmarks for its clusters) per
// figure.  The cilkbench command produces the full tables; these benchmarks
// provide the same measurements in `go test -bench` form so they integrate
// with standard Go tooling (benchstat, -benchmem, CI regression tracking).
//
//	go test -bench=Fig1 .          # Figure 1: lookup overhead vs L1 access
//	go test -bench=Fig5 .          # Figure 5: microbenchmark execution times
//	go test -bench=Fig6 .          # Figure 6: lookup overhead vs reducer count
//	go test -bench=Fig7 .          # Figure 7: reduce overhead (parallel)
//	go test -bench=Fig8 .          # Figure 8: reduce-overhead breakdown
//	go test -bench=Fig9 .          # Figure 9: speedup of add-n
//	go test -bench=Fig10 .         # Figure 10: PBFS on the input graphs
package cilkm_test

import (
	"fmt"
	"testing"

	cilkm "repro"
	"repro/internal/graph"
	"repro/internal/locking"
	"repro/internal/metrics"
	"repro/internal/pbfs"
	"repro/internal/reducers"
)

// benchWorkers is the worker count used by the parallel benchmarks; the
// paper uses 16, which oversubscribes small hosts but remains meaningful
// for overhead measurements.
const benchWorkers = 8

// addLoop performs b.N reducer additions spread over n add reducers.
func addLoop(b *testing.B, s *cilkm.Session, n int) {
	b.Helper()
	sums := make([]*reducers.Add[int64], n)
	for i := range sums {
		sums[i] = cilkm.NewAdd[int64](s.Engine())
	}
	b.ResetTimer()
	err := s.Run(func(c *cilkm.Context) {
		c.ParallelForGrain(0, b.N, 4096, func(c *cilkm.Context, i int) {
			sums[i&(n-1)].Add(c, 1)
		})
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, sr := range sums {
		total += sr.Value()
		sr.Close()
	}
	if total != int64(b.N) {
		b.Fatalf("sum = %d, want %d", total, b.N)
	}
}

// minLoop performs b.N min-reducer updates spread over n reducers.
func minLoop(b *testing.B, s *cilkm.Session, n int) {
	b.Helper()
	mins := make([]*reducers.Min[uint64], n)
	for i := range mins {
		mins[i] = cilkm.NewMin[uint64](s.Engine())
	}
	b.ResetTimer()
	err := s.Run(func(c *cilkm.Context) {
		c.ParallelForGrain(0, b.N, 4096, func(c *cilkm.Context, i int) {
			v := uint64(i)*2654435761 + 12345
			mins[i&(n-1)].Update(c, v)
		})
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range mins {
		r.Close()
	}
}

// maxLoop performs b.N max-reducer updates spread over n reducers.
func maxLoop(b *testing.B, s *cilkm.Session, n int) {
	b.Helper()
	maxs := make([]*reducers.Max[uint64], n)
	for i := range maxs {
		maxs[i] = cilkm.NewMax[uint64](s.Engine())
	}
	b.ResetTimer()
	err := s.Run(func(c *cilkm.Context) {
		c.ParallelForGrain(0, b.N, 4096, func(c *cilkm.Context, i int) {
			v := uint64(i)*2654435761 + 12345
			maxs[i&(n-1)].Update(c, v)
		})
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range maxs {
		r.Close()
	}
}

// baseLoop performs b.N plain array updates (the add-base workload and the
// L1 baseline of Figure 1).
func baseLoop(b *testing.B, s *cilkm.Session, n int) {
	b.Helper()
	type padded struct {
		v int64
		_ [56]byte
	}
	cells := make([]padded, n)
	b.ResetTimer()
	err := s.Run(func(c *cilkm.Context) {
		c.ParallelForGrain(0, b.N, 4096, func(_ *cilkm.Context, i int) {
			cells[i&(n-1)].v++
		})
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig1LookupOverhead measures the per-update cost of the four bars
// of Figure 1 on a single worker: an ordinary L1 memory access, a
// memory-mapped reducer, a hypermap reducer, and a spin lock per location.
func BenchmarkFig1LookupOverhead(b *testing.B) {
	const nLocations = 4
	b.Run("L1-memory", func(b *testing.B) {
		s := cilkm.New(cilkm.WithMechanism(cilkm.MemoryMapped), cilkm.WithWorkers(1))
		defer s.Close()
		baseLoop(b, s, nLocations)
	})
	b.Run("memory-mapped", func(b *testing.B) {
		s := cilkm.New(cilkm.WithMechanism(cilkm.MemoryMapped), cilkm.WithWorkers(1))
		defer s.Close()
		addLoop(b, s, nLocations)
	})
	b.Run("hypermap", func(b *testing.B) {
		s := cilkm.New(cilkm.WithMechanism(cilkm.Hypermap), cilkm.WithWorkers(1))
		defer s.Close()
		addLoop(b, s, nLocations)
	})
	b.Run("locking", func(b *testing.B) {
		s := cilkm.New(cilkm.WithMechanism(cilkm.MemoryMapped), cilkm.WithWorkers(1))
		defer s.Close()
		arr := locking.NewArray(nLocations)
		b.ResetTimer()
		err := s.Run(func(c *cilkm.Context) {
			c.ParallelForGrain(0, b.N, 4096, func(_ *cilkm.Context, i int) {
				arr.Add(i&(nLocations-1), 1)
			})
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// fig5Cases is the sweep used by the Figure 5 benchmarks (a subset of the
// paper's n values keeps `go test -bench` runtimes reasonable; the
// cilkbench command sweeps all of them).
var fig5Cases = []int{4, 64, 1024}

// BenchmarkFig5aSerial measures the add/min/max-n microbenchmarks on a
// single worker under both mechanisms (Figure 5(a)).
func BenchmarkFig5aSerial(b *testing.B) {
	benchmarkFig5(b, 1)
}

// BenchmarkFig5bParallel measures the same microbenchmarks on multiple
// workers (Figure 5(b)).
func BenchmarkFig5bParallel(b *testing.B) {
	benchmarkFig5(b, benchWorkers)
}

func benchmarkFig5(b *testing.B, workers int) {
	kinds := []struct {
		name string
		run  func(*testing.B, *cilkm.Session, int)
	}{
		{"add", addLoop},
		{"min", minLoop},
		{"max", maxLoop},
	}
	for _, kind := range kinds {
		for _, n := range fig5Cases {
			for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
				name := fmt.Sprintf("%s-%d/%s", kind.name, n, mech)
				b.Run(name, func(b *testing.B) {
					s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(workers))
					defer s.Close()
					kind.run(b, s, n)
				})
			}
		}
	}
}

// BenchmarkFig6LookupOverhead measures the per-lookup overhead of both
// mechanisms against the add-base baseline as the reducer count grows
// (Figure 6).  The "base" sub-benchmark is the quantity subtracted in the
// figure.
func BenchmarkFig6LookupOverhead(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("add-base-%d", n), func(b *testing.B) {
			s := cilkm.New(cilkm.WithMechanism(cilkm.MemoryMapped), cilkm.WithWorkers(1))
			defer s.Close()
			baseLoop(b, s, n)
		})
		for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
			b.Run(fmt.Sprintf("add-%d/%s", n, mech), func(b *testing.B) {
				s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(1))
				defer s.Close()
				addLoop(b, s, n)
			})
		}
	}
}

// BenchmarkFig7ReduceOverhead runs add-n on multiple workers with runtime
// instrumentation enabled and reports the reduce overhead (view creation +
// insertion + transferal + hypermerge) per steal, the quantity Figure 7
// compares across mechanisms.
func BenchmarkFig7ReduceOverhead(b *testing.B) {
	for _, n := range []int{4, 64, 1024} {
		for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
			b.Run(fmt.Sprintf("add-%d/%s", n, mech), func(b *testing.B) {
				s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(benchWorkers), cilkm.WithTiming())
				defer s.Close()
				s.Engine().ResetOverheads()
				s.Runtime().ResetStats()
				addLoop(b, s, n)
				ovh := s.Engine().Overheads()
				steals := s.Runtime().Stats().Steals
				b.ReportMetric(float64(ovh.Total().Nanoseconds()), "reduce-ns")
				if steals > 0 {
					b.ReportMetric(float64(ovh.Total().Nanoseconds())/float64(steals), "reduce-ns/steal")
				}
				b.ReportMetric(float64(steals), "steals")
			})
		}
	}
}

// BenchmarkFig8OverheadBreakdown runs add-n on the memory-mapped mechanism
// and reports the four overhead categories of Figure 8 as custom metrics.
func BenchmarkFig8OverheadBreakdown(b *testing.B) {
	for _, n := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("add-%d", n), func(b *testing.B) {
			s := cilkm.New(cilkm.WithMechanism(cilkm.MemoryMapped), cilkm.WithWorkers(benchWorkers), cilkm.WithTiming())
			defer s.Close()
			s.Engine().ResetOverheads()
			addLoop(b, s, n)
			ovh := s.Engine().Overheads()
			b.ReportMetric(float64(ovh.Duration(metrics.ViewCreation).Nanoseconds()), "view-creation-ns")
			b.ReportMetric(float64(ovh.Duration(metrics.ViewInsertion).Nanoseconds()), "view-insertion-ns")
			b.ReportMetric(float64(ovh.Duration(metrics.Hypermerge).Nanoseconds()), "hypermerge-ns")
			b.ReportMetric(float64(ovh.Duration(metrics.ViewTransferal).Nanoseconds()), "view-transferal-ns")
		})
	}
}

// BenchmarkFig9Speedup runs add-1024 on the memory-mapped mechanism for the
// worker counts of Figure 9; comparing ns/op across sub-benchmarks gives
// the speedup curves (meaningful only when the host has enough CPUs).
func BenchmarkFig9Speedup(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("add-1024/P=%d", p), func(b *testing.B) {
			s := cilkm.New(cilkm.WithMechanism(cilkm.MemoryMapped), cilkm.WithWorkers(p))
			defer s.Close()
			addLoop(b, s, 1024)
		})
	}
}

// BenchmarkFig10PBFS runs PBFS over small stand-ins for three of the
// paper's input graphs under both mechanisms, serially and in parallel
// (Figure 10); one iteration is one full BFS.
func BenchmarkFig10PBFS(b *testing.B) {
	for _, name := range []string{"rmat23", "grid3d200", "kkt_power"} {
		spec, ok := graph.FindInput(name)
		if !ok {
			b.Fatalf("unknown input %q", name)
		}
		g := spec.Build(1.0/512, 1)
		for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
			for _, p := range []int{1, benchWorkers} {
				b.Run(fmt.Sprintf("%s/%s/P=%d", name, mech, p), func(b *testing.B) {
					s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(p))
					defer s.Close()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0})
						if err != nil {
							b.Fatal(err)
						}
						if res.Reachable == 0 {
							b.Fatal("BFS reached nothing")
						}
					}
					b.ReportMetric(float64(g.NumVertices()), "vertices")
				})
			}
		}
	}
}
