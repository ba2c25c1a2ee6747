package core_test

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/reducers"
	"repro/internal/sched"
	"repro/internal/spa"
)

// sumView is the view of sumMonoid.  Arena eligibility is a property of the
// view type, and the unused pointer keeps this one on the heap path;
// arenaSumMonoid is the arena-placed sum.
type sumView struct {
	v int
	_ *byte
}

// sumMonoid is a minimal integer-sum monoid for engine-level tests.
var sumMonoid = core.NewMonoid(reducers.TypedFuncMonoid[sumView]{
	IdentityFn: func() *sumView { return &sumView{} },
	ReduceFn: func(l, r *sumView) *sumView {
		l.v += r.v
		return l
	}})

type catView struct{ s string }

// catMonoid concatenates strings; it is associative but not commutative.
var catMonoid = core.NewMonoid(reducers.TypedFuncMonoid[catView]{
	IdentityFn: func() *catView { return &catView{} },
	ReduceFn: func(l, r *catView) *catView {
		l.s += r.s
		return l
	}})

func TestMMRegisterAssignsSequentialAddrs(t *testing.T) {
	e := core.NewMM(core.MMConfig{Workers: 2})
	var prev spa.Addr = -1
	for i := 0; i < 300; i++ {
		r, err := e.Register(sumMonoid)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		if r.Addr() <= prev {
			t.Fatalf("addresses not increasing: %d after %d", r.Addr(), prev)
		}
		prev = r.Addr()
		if r.Engine() != core.Engine(e) || r.ID() == 0 {
			t.Fatal("reducer accessors incomplete")
		}
	}
	if e.Registered() != 300 {
		t.Fatalf("Registered = %d, want 300", e.Registered())
	}
}

func TestMMRegisterNilMonoidFails(t *testing.T) {
	e := core.NewMM(core.MMConfig{Workers: 1})
	if _, err := e.Register(core.Monoid{}); err == nil {
		t.Fatal("Register of the zero Monoid should fail")
	}
}

func TestMMUnregisterRecyclesSlots(t *testing.T) {
	// The directory's LIFO free list hands the recycled address to the very
	// next registration.
	e := core.NewMM(core.MMConfig{Workers: 1})
	r1, _ := e.Register(sumMonoid)
	r2, _ := e.Register(sumMonoid)
	addr1 := r1.Addr()
	e.Unregister(r1)
	e.Unregister(nil) // no-op
	if e.Registered() != 1 {
		t.Fatalf("Registered = %d, want 1", e.Registered())
	}
	r3, _ := e.Register(sumMonoid)
	if r3.Addr() != addr1 {
		t.Fatalf("slot not recycled: got %d, want %d", r3.Addr(), addr1)
	}
	if !r1.Retired() || r2.Retired() {
		t.Fatal("retired flags wrong")
	}
}

func TestMMLeftmostViewSemantics(t *testing.T) {
	e := core.NewMM(core.MMConfig{Workers: 1})
	r, _ := e.Register(sumMonoid)
	if got := r.Value().(*sumView).v; got != 0 {
		t.Fatalf("identity leftmost = %d, want 0", got)
	}
	r.SetValue(&sumView{v: 42})
	if got := core.Lookup(e, nil, r).(*sumView).v; got != 42 {
		t.Fatalf("serial lookup = %d, want 42", got)
	}
}

func TestMMModelAddressSpaceBacksSPAPages(t *testing.T) {
	workers := 2
	eng := core.NewMM(core.MMConfig{Workers: workers, ModelAddressSpace: true})
	s := core.NewSession(workers, eng)
	defer s.Close()

	// Register enough reducers to require two SPA pages.
	n := spa.SlotsPerMap + 10
	reds := make([]*core.Reducer, n)
	for i := range reds {
		r, err := eng.Register(sumMonoid)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		reds[i] = r
	}
	if got := eng.DirectoryStats().GrownPages; got != 2 {
		t.Fatalf("reserved %d TLMM reducer pages, want 2", got)
	}
	err := s.Run(func(c *sched.Context) {
		c.ParallelFor(0, n, func(c *sched.Context, i int) {
			core.Lookup(eng, c, reds[i]).(*sumView).v++
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range reds {
		if got := r.Value().(*sumView).v; got != 1 {
			t.Fatalf("reducer %d = %d, want 1", i, got)
		}
	}
	// The workers between them must have mapped both SPA pages through the
	// modelled sys_palloc / sys_pmap interface.
	mapped := 0
	for i := 0; i < workers; i++ {
		mapped += eng.WorkerMappedPages(i)
	}
	if mapped < 2 {
		t.Fatalf("workers mapped %d SPA pages, want at least 2", mapped)
	}
}

// TestModelMapsAdoptedPages pins the modelled mapping on the hypermerge's
// adopt path: a worker that adopts a deposited view onto a page it has never
// touched must map that page.  Worker 0 holds its left branch until worker 1
// has stolen the continuation, which writes the reducers on SPA page 1; worker
// 0 touches no reducer itself, so it maps page 1 only when it adopts those
// views at the join.
func TestModelMapsAdoptedPages(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 2, ModelAddressSpace: true})
	s := core.NewSession(2, eng)
	defer s.Close()
	rs := make([]*core.Reducer, spa.SlotsPerMap+2)
	for i := range rs {
		rs[i], _ = eng.Register(arenaSumMonoid)
	}
	onPage1 := rs[spa.SlotsPerMap:]
	var stolen atomic.Bool
	before := -1
	if err := s.Run(func(c *sched.Context) {
		c.Fork(func(c *sched.Context) {
			for deadline := time.Now().Add(10 * time.Second); !stolen.Load(); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Error("continuation was never stolen")
					return
				}
			}
			before = eng.WorkerMappedPages(0)
		}, func(c *sched.Context) {
			stolen.Store(true)
			for i, r := range onPage1 {
				*core.Lookup(eng, c, r).(*int64) += int64(10 * (i + 1))
			}
		})
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if before != 0 {
		t.Fatalf("worker 0 mapped %d pages before the join, want 0", before)
	}
	if got := eng.WorkerMappedPages(0); got != 1 {
		t.Fatalf("worker 0 mapped %d pages after adopting page 1, want 1", got)
	}
	for i, r := range onPage1 {
		if got, want := *r.Value().(*int64), int64(10*(i+1)); got != want {
			t.Fatalf("reducer %d on page 1 = %d, want %d", i, got, want)
		}
	}
	if err := eng.Quiescent(); err != nil {
		t.Fatalf("not quiescent: %v", err)
	}
}

func TestMMRootDepositsAbsorbInSerialOrder(t *testing.T) {
	// Each run's views are folded into the leftmost view after the views
	// already there, so sequential runs concatenate in program order even
	// for a non-commutative monoid.
	eng := core.NewMM(core.MMConfig{Workers: 2})
	s := core.NewSession(2, eng)
	defer s.Close()
	r, _ := eng.Register(catMonoid)
	for _, part := range []string{"A", "B", "C"} {
		part := part
		if err := s.Run(func(c *sched.Context) {
			c.Fork(
				func(c *sched.Context) { core.Lookup(eng, c, r).(*catView).s += part },
				func(c *sched.Context) { core.Lookup(eng, c, r).(*catView).s += strings.ToLower(part) },
			)
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if got := r.Value().(*catView).s; got != "AaBbCc" {
		t.Fatalf("leftmost = %q, want \"AaBbCc\"", got)
	}
}

func TestMMDepositCountAndPool(t *testing.T) {
	workers := 4
	eng := core.NewMM(core.MMConfig{Workers: workers, Timing: true})
	s := core.NewSession(workers, eng)
	defer s.Close()
	r, _ := eng.Register(sumMonoid)
	err := s.Run(func(c *sched.Context) {
		c.ParallelForGrain(0, 200, 1, func(c *sched.Context, i int) {
			time.Sleep(30 * time.Microsecond)
			core.Lookup(eng, c, r).(*sumView).v++
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r.Value().(*sumView).v; got != 200 {
		t.Fatalf("sum = %d, want 200", got)
	}
	if s.Runtime().Stats().Steals == 0 {
		t.Fatal("expected steals")
	}
	ps := eng.PoolStats()
	if ps.Allocs == 0 {
		t.Fatalf("public SPA pool unused: %+v", ps)
	}
	if ps.RejectedDirty != 0 {
		t.Fatalf("non-empty SPA pages were recycled: %+v", ps)
	}
	// All private views must have been transferred out by the end of the
	// run.
	for i := 0; i < workers; i++ {
		if n := eng.WorkerPrivateViews(i); n != 0 {
			t.Fatalf("worker %d still holds %d private views after the run", i, n)
		}
	}
	ovh := eng.Overheads()
	if ovh.Total() == 0 {
		t.Fatalf("expected timed overheads, got %s", ovh)
	}
}

func TestMMMergeRootDepositNil(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	eng.MergeRootDeposit(nil) // must not panic
	var d *core.MMDeposit
	eng.MergeRootDeposit(d) // typed nil
}

func TestMMName(t *testing.T) {
	eng := core.NewMM(core.MMConfig{})
	if !strings.Contains(eng.Name(), "Cilk-M") {
		t.Fatalf("Name = %q", eng.Name())
	}
}

func TestSessionAccessors(t *testing.T) {
	eng := core.NewMM(core.MMConfig{Workers: 2})
	s := core.NewSessionWithConfig(sched.Config{Workers: 2, Seed: 7}, eng)
	defer s.Close()
	if s.Workers() != 2 || s.Engine() != core.Engine(eng) || s.Runtime() == nil {
		t.Fatal("session accessors broken")
	}
}
