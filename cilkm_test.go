package cilkm_test

import (
	"context"
	"runtime"
	"testing"

	cilkm "repro"
	"repro/internal/metrics"
	"repro/internal/reducers"
)

// TestFacadeQuickstart exercises the whole typed reducer library through
// the facade on both mechanisms.
func TestFacadeQuickstart(t *testing.T) {
	for _, mech := range []cilkm.Mechanism{cilkm.MemoryMapped, cilkm.Hypermap} {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(2))
		sum := cilkm.NewAdd[int](s.Engine())
		list := cilkm.NewList[string](s.Engine())
		mn := cilkm.NewMin[int](s.Engine())
		mx := cilkm.NewMax[int](s.Engine())
		and := cilkm.NewAnd(s.Engine())
		or := cilkm.NewOr(s.Engine())
		str := cilkm.NewString(s.Engine())
		hist := cilkm.NewMapOf[int, int](s.Engine(), func(a, b int) int { return a + b })

		const n = 2000
		err := s.Run(func(c *cilkm.Context) {
			c.ParallelFor(0, n, func(c *cilkm.Context, i int) {
				sum.Add(c, i)
				mn.Update(c, i)
				mx.Update(c, i)
				and.Update(c, i >= 0)
				or.Update(c, i == 1234)
				hist.Update(c, i%3, 1)
			})
			list.PushBack(c, "a")
			str.Append(c, "x")
		})
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if got := sum.Value(); got != n*(n-1)/2 {
			t.Fatalf("%v: sum = %d", mech, got)
		}
		if v, ok := mn.Value(); !ok || v != 0 {
			t.Fatalf("%v: min = %d/%v", mech, v, ok)
		}
		if v, ok := mx.Value(); !ok || v != n-1 {
			t.Fatalf("%v: max = %d/%v", mech, v, ok)
		}
		if !and.Value() || !or.Value() {
			t.Fatalf("%v: and/or wrong", mech)
		}
		if len(list.Value()) != 1 || str.Value() != "x" {
			t.Fatalf("%v: list/string reducers wrong", mech)
		}
		if hist.Value()[0]+hist.Value()[1]+hist.Value()[2] != n {
			t.Fatalf("%v: histogram wrong", mech)
		}
		s.Close()
	}
}

// TestFacadeCustomAndEngineOptions drives the engine options and a one-off
// custom reducer built from a pair of functions.
func TestFacadeCustomAndEngineOptions(t *testing.T) {
	eng := cilkm.NewEngineWith(cilkm.WithMechanism(cilkm.MemoryMapped), cilkm.WithWorkers(2),
		cilkm.WithTiming(), cilkm.WithModelAddressSpace())
	s := cilkm.New(cilkm.WithMechanism(cilkm.Hypermap), cilkm.WithWorkers(2))
	defer s.Close()
	if eng.Name() == s.Engine().Name() {
		t.Fatal("expected two different mechanisms")
	}
	cu := cilkm.NewCustomOf[pair](s.Engine(), cilkm.TypedFuncMonoid[pair]{
		IdentityFn: func() *pair { return &pair{} },
		ReduceFn:   typedPairMonoid{}.Reduce,
	})
	if err := s.Run(func(c *cilkm.Context) {
		c.ParallelFor(0, 100, func(c *cilkm.Context, i int) {
			p := cu.View(c)
			p.a++
			p.b += i
		})
	}); err != nil {
		t.Fatal(err)
	}
	got := cu.Value()
	if got.a != 100 || got.b != 99*100/2 {
		t.Fatalf("custom reducer = %+v", got)
	}
}

type pair struct{ a, b int }

type typedPairMonoid struct{}

func (typedPairMonoid) Identity() *pair { return &pair{} }
func (typedPairMonoid) Reduce(l, r *pair) *pair {
	l.a += r.a
	l.b += r.b
	return l
}

// TestFunctionalOptionsConstructor drives the options-based New/NewEngineWith
// constructors and the typed custom reducer end to end on both mechanisms.
func TestFunctionalOptionsConstructor(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		s := cilkm.New(
			cilkm.WithMechanism(mech),
			cilkm.WithWorkers(2),
			cilkm.WithTiming(),
		)
		cu := cilkm.NewCustomOf[pair](s.Engine(), typedPairMonoid{})
		if err := s.Run(func(c *cilkm.Context) {
			c.ParallelFor(0, 100, func(c *cilkm.Context, i int) {
				p := cu.View(c)
				p.a++
				p.b += i
			})
		}); err != nil {
			t.Fatal(err)
		}
		if got := cu.Value(); got.a != 100 || got.b != 99*100/2 {
			t.Fatalf("%v: typed custom reducer = %+v", mech, got)
		}
		cu.Close()
		s.Close()
	}
}

// TestNewDefaultsAndEngineWith checks New's defaults (memory-mapped,
// GOMAXPROCS workers) and the options-based stand-alone engine constructor.
func TestNewDefaultsAndEngineWith(t *testing.T) {
	s := cilkm.New()
	defer s.Close()
	if s.Workers() < 1 {
		t.Fatalf("default session has %d workers", s.Workers())
	}
	if name := s.Engine().Name(); name != cilkm.NewEngineWith().Name() {
		t.Fatalf("default mechanisms differ: %q", name)
	}
	hm := cilkm.NewEngineWith(cilkm.WithMechanism(cilkm.Hypermap), cilkm.WithWorkers(2))
	if hm.Name() == s.Engine().Name() {
		t.Fatal("WithMechanism(Hypermap) ignored")
	}
}

// TestUnsetWorkersSizeTheEngine checks that an unset worker count sizes the
// stand-alone engine for runtime.GOMAXPROCS(0) workers, as WithWorkers
// documents, rather than for one: a handle made before the engine attaches
// sizes its view cache from Workers.
func TestUnsetWorkersSizeTheEngine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, mech := range cilkm.Mechanisms() {
		if got := cilkm.NewEngineWith(cilkm.WithMechanism(mech)).Workers(); got != 3 {
			t.Errorf("%v: NewEngineWith().Workers() = %d under GOMAXPROCS 3, want 3", mech, got)
		}
		if got := cilkm.NewEngineWith(cilkm.WithMechanism(mech), cilkm.WithWorkers(0)).Workers(); got != 3 {
			t.Errorf("%v: WithWorkers(0) sized the engine for %d workers, want 3", mech, got)
		}
	}
}

// TestTypedHandleEmbedding builds a reducer type by embedding cilkm.Handle,
// the documented extension point of the typed API.
func TestTypedHandleEmbedding(t *testing.T) {
	type stats = pair
	s := cilkm.New(cilkm.WithWorkers(2))
	defer s.Close()
	h := cilkm.NewHandle[stats](s.Engine(), typedPairMonoid{})
	defer h.Close()
	if err := s.Run(func(c *cilkm.Context) {
		c.ParallelFor(0, 500, func(c *cilkm.Context, i int) {
			v := h.View(c)
			v.a++
			v.b += 2
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := h.Peek(); got.a != 500 || got.b != 1000 {
		t.Fatalf("embedded handle = %+v", got)
	}
}

// TestEmptyJobAllocations pins what an empty job allocates at W = 1.  The
// scheduler hands every trace its worker's one Context, and an engine's
// trace token is the store it saves, so a Run allocates nothing on either
// engine: a trace that creates no view deposits nothing.  RunErr passes a
// context that is never done, so it needs no cancellation record.  Submit +
// Wait adds the handle and its done channel, the job's JobSession, and the
// spec's closure and settle hook; the spec itself stays on Submit's stack
// when no JobOption is passed.
func TestEmptyJobAllocations(t *testing.T) {
	want := map[cilkm.Mechanism]struct{ run, runErr, submit float64 }{
		cilkm.MemoryMapped: {0, 0, 5},
		cilkm.Hypermap:     {0, 0, 5},
	}
	for _, mech := range cilkm.Mechanisms() {
		w := want[mech]
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(1))
		if n := testing.AllocsPerRun(200, func() { _ = s.Run(func(*cilkm.Context) {}) }); n != w.run {
			t.Errorf("%v: an empty Run allocates %.1f objects, want %v", mech, n, w.run)
		}
		if n := testing.AllocsPerRun(200, func() { _ = s.RunErr(func(*cilkm.Context) {}) }); n != w.runErr {
			t.Errorf("%v: an empty RunErr allocates %.1f objects, want %v", mech, n, w.runErr)
		}
		s.Close()
		svc := cilkm.NewService(cilkm.WithMechanism(mech), cilkm.WithWorkers(1))
		n := testing.AllocsPerRun(200, func() {
			h, err := svc.Submit(context.Background(), func(*cilkm.Context, *cilkm.JobSession) {})
			if err == nil {
				err = h.Wait()
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if n != w.submit {
			t.Errorf("%v: an empty Submit + Wait allocates %.1f objects, want %v", mech, n, w.submit)
		}
		if err := svc.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestParallelForSplitsAllocateNothing: a split's continuation is the
// worker's pooled task carrying the right half's range, so a loop that is
// not stolen allocates nothing beyond what an empty Run does (15 splits
// once cost 15 closures).
func TestParallelForSplitsAllocateNothing(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(1))
		empty := testing.AllocsPerRun(200, func() { _ = s.Run(func(*cilkm.Context) {}) })
		loop := testing.AllocsPerRun(200, func() {
			_ = s.Run(func(c *cilkm.Context) {
				c.ParallelForGrain(0, 64, 4, func(*cilkm.Context, int) {})
			})
		})
		s.Close()
		if loop != empty {
			t.Errorf("%v: a Run of a 15-split loop allocates %.1f objects, an empty Run %.1f", mech, loop, empty)
		}
	}
}

// TestJobRegistrationAllocations pins what a service job that registers 8
// sum reducers allocates at W = 1: the empty job's objects
// (TestEmptyJobAllocations) and 3 per registration, alike on both engines.
// The job session keeps its first 8 reducers inline, so its scope list
// never grows; it used to grow 4 times.
func TestJobRegistrationAllocations(t *testing.T) {
	want := map[cilkm.Mechanism]float64{cilkm.MemoryMapped: 29, cilkm.Hypermap: 29}
	for _, mech := range cilkm.Mechanisms() {
		svc := cilkm.NewService(cilkm.WithMechanism(mech), cilkm.WithWorkers(1))
		n := testing.AllocsPerRun(200, func() {
			h, err := svc.Submit(context.Background(), func(_ *cilkm.Context, js *cilkm.JobSession) {
				for i := 0; i < 8; i++ {
					cilkm.NewAdd[int64](js)
				}
			})
			if err == nil {
				err = h.Wait()
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if n != want[mech] {
			t.Errorf("%v: a job registering 8 reducers allocates %.1f objects, want %v", mech, n, want[mech])
		}
		if err := svc.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestReadOnlyRunCreatesNothing: a W = 1 Run that ReadViews 64 Add
// handles and writes none is served its trace's zero block for each of
// them, on both engines.  It creates, carves, elides and deposits nothing,
// and allocates what an empty Run does.
func TestReadOnlyRunCreatesNothing(t *testing.T) {
	type stats interface {
		ArenaStats() metrics.ArenaStats
		MergeStats() metrics.MergePipelineStats
	}
	for _, mech := range cilkm.Mechanisms() {
		s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(1))
		eng := s.Engine()
		hs := make([]*reducers.Add[int64], 64)
		for i := range hs {
			hs[i] = cilkm.NewAdd[int64](eng)
		}
		var sink int64
		read := func(c *cilkm.Context) {
			for _, h := range hs {
				sink += *h.ReadView(c)
			}
		}
		arena, merge := eng.(stats).ArenaStats(), eng.(stats).MergeStats()
		created := eng.Overheads().Count(metrics.ViewCreation)
		if err := s.Run(func(c *cilkm.Context) {
			w := c.Worker()
			tr := eng.BeginTrace(w)
			read(c)
			if d := eng.EndTrace(w, tr); d != nil {
				t.Errorf("%v: a read-only trace deposited %v", mech, d)
			}
			read(c)
		}); err != nil {
			t.Fatalf("%v: Run: %v", mech, err)
		}
		empty := testing.AllocsPerRun(200, func() { _ = s.Run(func(*cilkm.Context) {}) })
		reads := testing.AllocsPerRun(200, func() { _ = s.Run(read) })
		if reads != empty {
			t.Errorf("%v: a Run of 64 ReadViews allocates %.1f objects, an empty Run %.1f", mech, reads, empty)
		}
		if got := eng.(stats).ArenaStats().Allocs; got != arena.Allocs {
			t.Errorf("%v: arena allocs %d → %d over read-only Runs", mech, arena.Allocs, got)
		}
		if got := eng.(stats).MergeStats().IdentityElisions; got != merge.IdentityElisions {
			t.Errorf("%v: identity elisions %d → %d over read-only Runs", mech, merge.IdentityElisions, got)
		}
		if got := eng.Overheads().Count(metrics.ViewCreation); got != created {
			t.Errorf("%v: views created %d → %d over read-only Runs", mech, created, got)
		}
		if sink != 0 {
			t.Errorf("%v: ReadViews summed to %d, want 0", mech, sink)
		}
		if err := s.Quiescent(); err != nil {
			t.Errorf("%v: %v", mech, err)
		}
		s.Close()
	}
}
