package hypermap_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/reducers"
	"repro/internal/sched"
)

type sumView struct{ v int }

var sumMonoid = core.NewMonoid(reducers.TypedFuncMonoid[sumView]{
	IdentityFn: func() *sumView { return &sumView{} },
	ReduceFn: func(l, r *sumView) *sumView {
		l.v += r.v
		return l
	}})

// heapSumView is sumView with a pointer field, so it is not
// arena-eligible: a read-only first lookup of it still installs an identity
// entry (a sumView one is served the trace's zero block).
type heapSumView struct {
	v int
	_ *byte
}

var heapSumMonoid = core.NewMonoid(reducers.TypedFuncMonoid[heapSumView]{
	IdentityFn: func() *heapSumView { return &heapSumView{} },
	ReduceFn: func(l, r *heapSumView) *heapSumView {
		l.v += r.v
		return l
	}})

type catView struct{ s string }

var catMonoid = core.NewMonoid(reducers.TypedFuncMonoid[catView]{
	IdentityFn: func() *catView { return &catView{} },
	ReduceFn: func(l, r *catView) *catView {
		l.s += r.s
		return l
	}})

func TestHypermapRegisterUnregister(t *testing.T) {
	// The directory's LIFO free list hands the recycled address to the very
	// next registration.
	e := hypermap.New(hypermap.Config{Workers: 2})
	if _, err := e.Register(core.Monoid{}); err == nil {
		t.Fatal("Register of the zero Monoid should fail")
	}
	r1, err := e.Register(sumMonoid)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	r2, _ := e.Register(sumMonoid)
	if r1.Addr() == r2.Addr() {
		t.Fatal("distinct reducers share an address")
	}
	if e.Registered() != 2 {
		t.Fatalf("Registered = %d, want 2", e.Registered())
	}
	addr := r1.Addr()
	e.Unregister(r1)
	e.Unregister(nil)
	if !r1.Retired() {
		t.Fatal("Unregister did not retire the reducer")
	}
	r3, _ := e.Register(sumMonoid)
	if r3.Addr() != addr {
		t.Fatalf("address %d not recycled, got %d", addr, r3.Addr())
	}
}

func TestHypermapSerialAndParallelSum(t *testing.T) {
	for _, workers := range []int{1, 4} {
		eng := hypermap.New(hypermap.Config{Workers: workers})
		s := core.NewSession(workers, eng)
		r, _ := eng.Register(sumMonoid)
		const n = 500
		err := s.Run(func(c *sched.Context) {
			c.ParallelForGrain(0, n, 1, func(c *sched.Context, i int) {
				if workers > 1 {
					time.Sleep(20 * time.Microsecond)
				}
				core.Lookup(eng, c, r).(*sumView).v++
			})
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := r.Value().(*sumView).v; got != n {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, n)
		}
		if workers > 1 && s.Runtime().Stats().Steals == 0 {
			t.Fatal("expected steals on the parallel run")
		}
		for i := 0; i < workers; i++ {
			if got := eng.WorkerViewCount(i); got != 0 {
				t.Fatalf("worker %d retains %d views after the run", i, got)
			}
		}
		s.Close()
	}
}

func TestHypermapNonCommutativeOrder(t *testing.T) {
	eng := hypermap.New(hypermap.Config{Workers: 4})
	s := core.NewSession(4, eng)
	defer s.Close()
	r, _ := eng.Register(catMonoid)
	const n = 150
	var want strings.Builder
	for i := 0; i < n; i++ {
		want.WriteByte(byte('a' + i%26))
	}
	err := s.Run(func(c *sched.Context) {
		c.ParallelForGrain(0, n, 1, func(c *sched.Context, i int) {
			time.Sleep(40 * time.Microsecond)
			view := core.Lookup(eng, c, r).(*catView)
			view.s += string(byte('a' + i%26))
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r.Value().(*catView).s; got != want.String() {
		t.Fatalf("order differs from serial:\ngot  %q\nwant %q", got, want.String())
	}
}

func TestHypermapOverheadsAndLookupCounting(t *testing.T) {
	eng := hypermap.New(hypermap.Config{Workers: 2, Timing: true})
	s := core.NewSession(2, eng)
	defer s.Close()
	r, _ := eng.Register(sumMonoid)
	const n = 300
	err := s.Run(func(c *sched.Context) {
		c.ParallelForGrain(0, n, 1, func(c *sched.Context, i int) {
			time.Sleep(20 * time.Microsecond)
			core.Lookup(eng, c, r).(*sumView).v++
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := core.LookupCount(eng); got != n {
		t.Fatalf("LookupCount = %d, want %d", got, n)
	}
	if eng.Overheads().Total() == 0 {
		t.Fatal("expected timed overheads")
	}
	eng.ResetOverheads()
	if eng.Overheads().Total() != 0 || core.LookupCount(eng) != 0 {
		t.Fatal("ResetOverheads did not clear counters")
	}
	if !strings.Contains(eng.Name(), "hypermap") {
		t.Fatalf("Name = %q", eng.Name())
	}
}

func TestHypermapMergeRootDepositNil(t *testing.T) {
	eng := hypermap.New(hypermap.Config{Workers: 1})
	eng.MergeRootDeposit(nil)
	var d *hypermap.Deposit
	eng.MergeRootDeposit(d)
	if (&hypermap.Deposit{}).Len() != 0 {
		t.Fatal("empty deposit should have zero length")
	}
}

func TestHypermapSerialContext(t *testing.T) {
	eng := hypermap.New(hypermap.Config{Workers: 1})
	r, _ := eng.Register(sumMonoid)
	core.Lookup(eng, nil, r).(*sumView).v = 9
	if got := r.Value().(*sumView).v; got != 9 {
		t.Fatalf("serial-context value = %d, want 9", got)
	}
}

// TestHypermapIdentityElision checks that the hypermap engine elides
// nothing: entries created by read-only resolutions (LookupWord with
// mutable=false, of a view type the zero block does not serve) are
// adopted and reduced by the hypermerge exactly like written ones, and the
// values are the writes, the read-only reducers' staying the identity.
func TestHypermapIdentityElision(t *testing.T) {
	const nred = 24
	const reps = 4
	e := hypermap.New(hypermap.Config{Workers: 1})
	s := core.NewSession(1, e)
	defer s.Close()
	rs := make([]*core.Reducer, nred)
	for i := range rs {
		if i%2 == 0 {
			rs[i], _ = e.Register(sumMonoid)
		} else {
			rs[i], _ = e.Register(heapSumMonoid)
		}
	}
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		for rep := 0; rep < reps; rep++ {
			tr := e.BeginTrace(w)
			for i, r := range rs {
				if i%2 == 0 {
					core.Lookup(e, c, r).(*sumView).v++ // written
				} else {
					word, _ := e.LookupWord(c, r, 0, false) // read-only
					if got := (*heapSumView)(word).v; got != 0 {
						t.Errorf("read-only first lookup = %d, want identity 0", got)
					}
				}
			}
			d := e.EndTrace(w, tr)
			e.Merge(w, w.CurrentTrace(), d)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Run(func(c *sched.Context) {}); err != nil {
		t.Fatalf("flush run: %v", err)
	}
	for i, r := range rs {
		if i%2 == 1 {
			if got := r.Value().(*heapSumView).v; got != 0 {
				t.Fatalf("reducer %d = %d, want 0", i, got)
			}
			continue
		}
		if got := r.Value().(*sumView).v; got != reps {
			t.Fatalf("reducer %d = %d, want %d", i, got, reps)
		}
	}
	if got := e.IdentityElisions(); got != 0 {
		t.Fatalf("IdentityElisions = %d, want 0", got)
	}
	// The first cycle adopts every entry into the root trace's hypermap;
	// each later one reduces into it, read-only entries included.
	ms := e.MergeStats()
	if ms.Adopts != nred || ms.Reduces != int64(nred*(reps-1)) {
		t.Fatalf("adopts=%d reduces=%d, want %d and %d", ms.Adopts, ms.Reduces, nred, nred*(reps-1))
	}
}

// TestHypermapWriteAfterReadOnlyLookup pins the written-bit stamping order:
// a read-only first touch followed by a mutable lookup in the same trace
// must produce a view that merges normally.
func TestHypermapWriteAfterReadOnlyLookup(t *testing.T) {
	e := hypermap.New(hypermap.Config{Workers: 1})
	s := core.NewSession(1, e)
	defer s.Close()
	r, _ := e.Register(sumMonoid)
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		tr := e.BeginTrace(w)
		word, _ := e.LookupWord(c, r, 0, false)
		_ = (*sumView)(word).v
		core.Lookup(e, c, r).(*sumView).v += 5
		d := e.EndTrace(w, tr)
		e.Merge(w, w.CurrentTrace(), d)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Run(func(c *sched.Context) {}); err != nil {
		t.Fatalf("flush run: %v", err)
	}
	if got := r.Value().(*sumView).v; got != 5 {
		t.Fatalf("value = %d, want 5", got)
	}
	if got := e.IdentityElisions(); got != 0 {
		t.Fatalf("IdentityElisions = %d, want 0", got)
	}
}
