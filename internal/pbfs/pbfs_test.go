package pbfs_test

import (
	"testing"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/pbfs"
	"repro/internal/reducers"
	"repro/internal/sched"
)

func newSession(t *testing.T, m reducers.Mechanism, workers int) *core.Session {
	t.Helper()
	s := reducers.NewSession(m, workers, reducers.EngineOptions{})
	t.Cleanup(s.Close)
	return s
}

func testGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(500),
		graph.Star(1000),
		graph.CompleteBinaryTree(1023),
		graph.Grid3D(8, 8, 8),
		graph.Torus2D(16),
		graph.RMAT(10, 8, 0.57, 0.19, 0.19, 7),
		graph.Random(600, 1800, 3),
	}
}

func TestSerialMatchesGraphBFS(t *testing.T) {
	for _, g := range testGraphs() {
		res := pbfs.Serial(g, 0)
		dist, layers := g.BFS(0)
		if res.Layers != layers {
			t.Fatalf("%s: serial layers %d, want %d", g.Name(), res.Layers, layers)
		}
		for v := range dist {
			if res.Dist[v] != dist[v] {
				t.Fatalf("%s: dist[%d] mismatch", g.Name(), v)
			}
		}
	}
}

func TestParallelMatchesSerialAllMechanisms(t *testing.T) {
	for _, m := range reducers.Mechanisms() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				s := newSession(t, m, workers)
				for _, g := range testGraphs() {
					res, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0})
					if err != nil {
						t.Fatalf("%s (P=%d): %v", g.Name(), workers, err)
					}
					if err := pbfs.Validate(g, 0, res); err != nil {
						t.Fatalf("%s (P=%d): %v", g.Name(), workers, err)
					}
				}
			}
		})
	}
}

// TestParallelForksOverBlocks runs graphs whose frontiers span many bag
// blocks — Grid3D(48,48,48)'s widest layer holds over 1 700 vertices, so
// its range loop splits over 14 blocks — which the small graphs above
// never do: their layers fit one block and are explored without a single
// fork.
func TestParallelForksOverBlocks(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Grid3D(48, 48, 48),
		graph.Random(20000, 80000, 5),
	}
	for _, m := range reducers.Mechanisms() {
		for _, workers := range []int{1, 2, 4} {
			s := newSession(t, m, workers)
			for _, g := range graphs {
				before := s.Runtime().Stats().Forks
				res, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0})
				if err != nil {
					t.Fatalf("%v %s (P=%d): %v", m, g.Name(), workers, err)
				}
				if err := pbfs.Validate(g, 0, res); err != nil {
					t.Fatalf("%v %s (P=%d): %v", m, g.Name(), workers, err)
				}
				if forks := s.Runtime().Stats().Forks - before; forks == 0 {
					t.Fatalf("%v %s (P=%d): traversal never forked", m, g.Name(), workers)
				}
				if err := s.Quiescent(); err != nil {
					t.Fatalf("%v %s (P=%d): %v", m, g.Name(), workers, err)
				}
			}
		}
	}
}

func TestParallelFromNonZeroSource(t *testing.T) {
	s := newSession(t, reducers.MemoryMapped, 2)
	g := graph.Grid3D(6, 6, 6)
	src := int32(100)
	res, err := pbfs.Parallel(s, g, pbfs.Config{Source: src})
	if err != nil {
		t.Fatalf("Parallel: %v", err)
	}
	if err := pbfs.Validate(g, src, res); err != nil {
		t.Fatal(err)
	}
}

func TestParallelDisconnectedGraph(t *testing.T) {
	g, err := graph.FromEdges(10, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 5, V: 6}}, "disconnected")
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, reducers.Hypermap, 2)
	res, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0})
	if err != nil {
		t.Fatalf("Parallel: %v", err)
	}
	if res.Reachable != 3 {
		t.Fatalf("Reachable = %d, want 3", res.Reachable)
	}
	if res.Dist[5] != -1 || res.Dist[6] != -1 {
		t.Fatal("vertices in the other component should stay unreachable")
	}
	if err := pbfs.Validate(g, 0, res); err != nil {
		t.Fatal(err)
	}
}

func TestParallelErrors(t *testing.T) {
	s := newSession(t, reducers.MemoryMapped, 1)
	if _, err := pbfs.Parallel(s, nil, pbfs.Config{}); err == nil {
		t.Fatal("nil graph should fail")
	}
	g := graph.Path(10)
	if _, err := pbfs.Parallel(s, g, pbfs.Config{Source: -1}); err == nil {
		t.Fatal("negative source should fail")
	}
	if _, err := pbfs.Parallel(s, g, pbfs.Config{Source: 99}); err == nil {
		t.Fatal("out-of-range source should fail")
	}
}

// wantLookups is Result.Lookups computed from the serial BFS: one
// Handle.View per block of each layer's frontier, Σ_d ⌈|{v : dist[v] = d}| /
// BlockSize⌉.
func wantLookups(g *graph.Graph, source int32) int64 {
	perLayer := map[int32]int64{}
	for _, d := range pbfs.Serial(g, source).Dist {
		if d >= 0 {
			perLayer[d]++
		}
	}
	var want int64
	for _, n := range perLayer {
		want += (n + bag.BlockSize - 1) / bag.BlockSize
	}
	return want
}

// TestLookupCountingDuringPBFS checks Result.Lookups against the serial
// BFS (wantLookups) at every worker count.
func TestLookupCountingDuringPBFS(t *testing.T) {
	g := graph.Grid3D(48, 48, 48)
	want := wantLookups(g, 0)
	for _, workers := range []int{1, 2} {
		res, err := pbfs.Parallel(newSession(t, reducers.MemoryMapped, workers), g, pbfs.Config{Source: 0})
		if err != nil {
			t.Fatalf("W=%d: Parallel: %v", workers, err)
		}
		if err := pbfs.Validate(g, 0, res); err != nil {
			t.Fatalf("W=%d: %v", workers, err)
		}
		if res.Lookups != want {
			t.Errorf("W=%d: Lookups = %d, want %d", workers, res.Lookups, want)
		}
	}
}

// TestParallelIsOneRun: a search is one root, whatever its layer count —
// its layers are fork-joins inside that root — on both engines.
func TestParallelIsOneRun(t *testing.T) {
	g := graph.Grid3D(24, 24, 24)
	want := wantLookups(g, 0)
	for _, m := range reducers.Mechanisms() {
		for _, workers := range []int{1, 2} {
			s := newSession(t, m, workers)
			for search := 0; search < 2; search++ {
				before := s.Runtime().Stats().RootTasks
				res, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0})
				if err != nil {
					t.Fatalf("%v W=%d: Parallel: %v", m, workers, err)
				}
				if err := pbfs.Validate(g, 0, res); err != nil {
					t.Fatalf("%v W=%d: %v", m, workers, err)
				}
				if runs := s.Runtime().Stats().RootTasks - before; runs != 1 {
					t.Errorf("%v W=%d: search %d of %d layers took %d Runs, want 1", m, workers, search, res.Layers, runs)
				}
				if res.Lookups != want {
					t.Errorf("%v W=%d: Lookups = %d, want %d", m, workers, res.Lookups, want)
				}
			}
		}
	}
}

// TestParallelAllocations pins what a search allocates at W = 1 on both
// engines: about one bag node per lookup (the next frontier's blocks) plus
// a constant for the search's own state.  A layer is one range loop over
// the frontier's blocks, whose splits push pooled tasks, so no fork
// allocates a closure; and the root strand reuses its current bag and
// block list, so a layer allocates nothing of its own.
func TestParallelAllocations(t *testing.T) {
	g := graph.Grid3D(24, 24, 24)
	for _, m := range reducers.Mechanisms() {
		s := newSession(t, m, 1)
		res, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0})
		if err != nil {
			t.Fatalf("%v: Parallel: %v", m, err)
		}
		var runErr error
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0}); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%v: Parallel: %v", m, runErr)
		}
		t.Logf("%v: %.0f allocations per search (%d lookups, %d layers)", m, allocs, res.Lookups, res.Layers)
		if bound := float64(res.Lookups + 32); allocs > bound {
			t.Errorf("%v: %.0f allocations per search, want at most %.0f (%d lookups + 32)", m, allocs, bound, res.Lookups)
		}
	}
}

// TestParallelUnderForcedSteals runs searches with every fork's
// continuation forced to run as a stolen task (faultinject.SchedForceSteal),
// so each layer's next frontier reaches the root strand's view through
// hypermerges at every join before the root strand takes it.
func TestParallelUnderForcedSteals(t *testing.T) {
	plan := faultinject.NewPlan(21).Arm(faultinject.SchedForceSteal, faultinject.Rule{Prob: 1})
	defer faultinject.Activate(plan)()
	graphs := []*graph.Graph{
		graph.Grid3D(24, 24, 24),
		graph.RMAT(12, 8, 0.57, 0.19, 0.19, 7),
	}
	for _, m := range reducers.Mechanisms() {
		s := newSession(t, m, 2)
		for _, g := range graphs {
			before := s.Engine().Registered()
			res, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0})
			if err != nil {
				t.Fatalf("%v %s: Parallel: %v", m, g.Name(), err)
			}
			if err := pbfs.Validate(g, 0, res); err != nil {
				t.Fatalf("%v %s: %v", m, g.Name(), err)
			}
			if want := wantLookups(g, 0); res.Lookups != want {
				t.Errorf("%v %s: Lookups = %d, want %d", m, g.Name(), res.Lookups, want)
			}
			if err := s.Quiescent(); err != nil {
				t.Errorf("%v %s: %v", m, g.Name(), err)
			}
			if n := s.Engine().Registered(); n != before {
				t.Errorf("%v %s: %d reducers registered after the search, want %d", m, g.Name(), n, before)
			}
		}
	}
	if plan.Fires(faultinject.SchedForceSteal) == 0 {
		t.Error("no fork was forced")
	}
}

func TestReducerReleasedAfterRun(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 2})
	s := core.NewSession(2, eng)
	defer s.Close()
	g := graph.Torus2D(12)
	before := eng.Registered()
	if _, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0}); err != nil {
		t.Fatalf("Parallel: %v", err)
	}
	if eng.Registered() != before {
		t.Fatalf("frontier reducer leaked: %d registered, want %d", eng.Registered(), before)
	}
}

func TestBagMonoid(t *testing.T) {
	s := newSession(t, reducers.Hypermap, 1)
	eng := s.Engine()
	r, err := eng.Register(pbfs.BagMonoid())
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	type inserter interface {
		Insert(int32)
		Len() int
	}
	r.Value().(inserter).Insert(1)
	if err := s.Run(func(c *sched.Context) {
		b := core.Lookup(eng, c, r).(inserter)
		b.Insert(2)
		b.Insert(3)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Value().(inserter).Len() != 3 {
		t.Fatal("bag monoid reduce should union the bags")
	}
}

func TestPBFSOnEmptyishGraph(t *testing.T) {
	s := newSession(t, reducers.MemoryMapped, 1)
	g := graph.Path(1)
	res, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0})
	if err != nil {
		t.Fatalf("Parallel: %v", err)
	}
	if res.Layers != 0 || res.Reachable != 1 {
		t.Fatalf("single-vertex graph: %+v", res)
	}
}

func TestPBFSWithExplicitScheduler(t *testing.T) {
	// Drive PBFS through a session built with an explicit scheduler config
	// to make sure nothing depends on default construction.
	eng := core.NewMM(core.MMConfig{Workers: 3})
	s := core.NewSessionWithConfig(sched.Config{Workers: 3, Seed: 99}, eng)
	defer s.Close()
	g := graph.RMAT(9, 6, 0.45, 0.25, 0.15, 21)
	res, err := pbfs.Parallel(s, g, pbfs.Config{Source: 0})
	if err != nil {
		t.Fatalf("Parallel: %v", err)
	}
	if err := pbfs.Validate(g, 0, res); err != nil {
		t.Fatal(err)
	}
}
