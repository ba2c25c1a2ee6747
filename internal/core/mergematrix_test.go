package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// seqView is a pointer-free, fixed-size view of a noncommutative monoid:
// the polynomial hash of a sequence (h) with the base raised to its length
// (p).  Concatenation is associative and order-sensitive, so a hypermerge
// that swaps or repeats an operand changes the result, and the view fits an
// arena size class.
type seqView struct{ h, p uint64 }

const seqBase = 1_000_003

func (v *seqView) push(x uint64) { v.h, v.p = v.h*seqBase+x, v.p*seqBase }

// seq lets the tests read both view types as a *seqView.
func (v *seqView) seq() *seqView { return v }

func seqConcat(l, r seqView) seqView { return seqView{h: l.h*r.p + r.h, p: l.p * r.p} }

// seqHeapView is seqView kept off the arena: placement is a property of the
// view type, and a pointer field makes a type ineligible.
type seqHeapView struct {
	seqView
	_ *byte
}

// seqViewer is what core.Lookup and Reducer.Value return for either view
// type.
type seqViewer interface{ seq() *seqView }

// Which operand a seqMonoid's Reduce returns: the engines handle "left
// updated in place", "right updated in place" and "a fresh view"
// differently (which slot survives, which views die).
const (
	retLeft = iota
	retRight
	retFresh
)

// seqMonoid is the sequence monoid over V, seqView (arena) or seqHeapView
// (heap), whose Reduce returns the operand ret names.
func seqMonoid[V any, PV interface {
	*V
	seqViewer
}](ret int) core.Monoid {
	fresh := func(v seqView) *V {
		f := new(V)
		*PV(f).seq() = v
		return f
	}
	return core.NewMonoid(reducers.TypedFuncMonoid[V]{
		IdentityFn: func() *V { return fresh(seqView{p: 1}) },
		ReduceFn: func(l, r *V) *V {
			c := seqConcat(*PV(l).seq(), *PV(r).seq())
			switch ret {
			case retLeft:
				*PV(l).seq() = c
				return l
			case retRight:
				*PV(r).seq() = c
				return r
			}
			return fresh(c)
		}})
}

// seqPlacements is the placement axis of the matrix.
func seqPlacements(ret int) map[string]core.Monoid {
	return map[string]core.Monoid{
		"heap":  seqMonoid[seqHeapView](ret),
		"arena": seqMonoid[seqView](ret),
	}
}

// How a trace touches a reducer before the merge.
const (
	absent = iota
	readOnly
	written
)

// mergeCycle runs its two halves around one hypermerge on the calling
// worker: cur runs in the job's root trace, dep in a nested trace whose
// deposit is then merged back — the steal→transferal→hypermerge sequence
// without needing a thief.
func mergeCycle(t *testing.T, eng core.Engine, s *core.Session, cur, dep func(c *sched.Context)) {
	t.Helper()
	if err := s.Run(func(c *sched.Context) {
		w := c.Worker()
		cur(c)
		tr := eng.BeginTrace(w)
		dep(c)
		d := eng.EndTrace(w, tr)
		eng.Merge(w, w.CurrentTrace(), d)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := eng.Quiescent(); err != nil {
		t.Fatalf("not quiescent: %v", err)
	}
}

// TestMergeMatrixBothEngines checks the hypermerge's per-slot decisions
// against a serial oracle on both engines: every combination of the current
// trace's access, the deposited trace's access, the operand the monoid
// returns and the view's placement; a recycled address whose stale view
// sits on either side or was already dropped inside the deposited trace;
// and a noncommutative string monoid over widths that cross SPA page
// boundaries and overflow the pages' logs.
func TestMergeMatrixBothEngines(t *testing.T) {
	for name, eng := range map[string]core.Engine{
		"mm":       core.NewMM(core.MMConfig{Workers: 1}),
		"hypermap": hypermap.New(hypermap.Config{Workers: 1}),
	} {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(1, eng)
			defer s.Close()
			touch := func(c *sched.Context, r *core.Reducer, access int, x uint64) {
				switch access {
				case readOnly:
					eng.LookupWord(c, r, 0, false)
				case written:
					core.Lookup(eng, c, r).(seqViewer).seq().push(x)
				}
			}

			accessNames := []string{"absent", "readonly", "written"}
			retNames := []string{"left", "right", "fresh"}
			for cur := absent; cur <= written; cur++ {
				for dep := readOnly; dep <= written; dep++ {
					for ret := retLeft; ret <= retFresh; ret++ {
						for placement, m := range seqPlacements(ret) {
							row := fmt.Sprintf("cur=%s dep=%s ret=%s %s", accessNames[cur], accessNames[dep], retNames[ret], placement)
							r, err := eng.Register(m)
							if err != nil {
								t.Fatalf("%s: Register: %v", row, err)
							}
							if r.ArenaEligible() != (placement == "arena") {
								t.Fatalf("%s: ArenaEligible = %v", row, r.ArenaEligible())
							}
							var reducesBefore int64
							mm, isMM := eng.(*core.MM)
							if isMM {
								reducesBefore = mm.MergeStats().Reduces
							}
							mergeCycle(t, eng, s,
								func(c *sched.Context) { touch(c, r, cur, 1) },
								func(c *sched.Context) { touch(c, r, dep, 2) })
							want := seqView{p: 1}
							if cur == written {
								want.push(1)
							}
							if dep == written {
								want.push(2)
							}
							if got := *r.Value().(seqViewer).seq(); got != want {
								t.Errorf("%s: value %+v, want %+v", row, got, want)
							}
							if isMM {
								wantReduces := int64(0)
								if cur != absent && dep == written {
									wantReduces = 1
								}
								if got := mm.MergeStats().Reduces - reducesBefore; got != wantReduces {
									t.Errorf("%s: %d reduce calls, want %d", row, got, wantReduces)
								}
							}
							eng.Unregister(r)
						}
					}
				}
			}

			// A recycled address: r1 is unregistered while its view is in
			// flight and r2 takes the address.  With the stale view in the
			// deposit it must be dropped; with it in the current trace it
			// must be dropped and the deposited view adopted.  Either way r2
			// ends with its own contribution and r1 absorbs nothing.
			recycle := func(r1 *core.Reducer, m core.Monoid) *core.Reducer {
				eng.Unregister(r1)
				r2, _ := eng.Register(m)
				return r2
			}
			for side, run := range map[string]func(c *sched.Context, r1 *core.Reducer, m core.Monoid) *core.Reducer{
				"stale deposit": func(c *sched.Context, r1 *core.Reducer, m core.Monoid) *core.Reducer {
					w := c.Worker()
					tr := eng.BeginTrace(w)
					touch(c, r1, written, 1)
					d := eng.EndTrace(w, tr)
					r2 := recycle(r1, m)
					touch(c, r2, written, 2)
					eng.Merge(w, w.CurrentTrace(), d)
					return r2
				},
				"stale current": func(c *sched.Context, r1 *core.Reducer, m core.Monoid) *core.Reducer {
					w := c.Worker()
					touch(c, r1, written, 1)
					r2 := recycle(r1, m)
					tr := eng.BeginTrace(w)
					touch(c, r2, written, 2)
					d := eng.EndTrace(w, tr)
					eng.Merge(w, w.CurrentTrace(), d)
					return r2
				},
				// Both incarnations inside the deposited trace: r2's first
				// lookup drops r1's view and reuses its slot, so the page
				// the memory-mapped engine hands off logs that index twice
				// and the hypermerge must still fold r2's view exactly once.
				"stale dropped inside the deposited trace": func(c *sched.Context, r1 *core.Reducer, m core.Monoid) *core.Reducer {
					w := c.Worker()
					tr := eng.BeginTrace(w)
					touch(c, r1, written, 1)
					r2 := recycle(r1, m)
					touch(c, r2, written, 2)
					d := eng.EndTrace(w, tr)
					eng.Merge(w, w.CurrentTrace(), d)
					return r2
				},
			} {
				for placement, m := range seqPlacements(retLeft) {
					r1, _ := eng.Register(m)
					var r2 *core.Reducer
					if err := s.Run(func(c *sched.Context) { r2 = run(c, r1, m) }); err != nil {
						t.Fatalf("%s: Run: %v", side, err)
					}
					if r2.Addr() != r1.Addr() {
						t.Fatalf("%s: address not recycled (%d, then %d)", side, r1.Addr(), r2.Addr())
					}
					want := seqView{p: 1}
					if got := *r1.Value().(seqViewer).seq(); got != want {
						t.Errorf("%s %s: retired reducer absorbed %+v", side, placement, got)
					}
					want.push(2)
					if got := *r2.Value().(seqViewer).seq(); got != want {
						t.Errorf("%s %s: live reducer = %+v, want %+v", side, placement, got, want)
					}
					if err := eng.Quiescent(); err != nil {
						t.Fatalf("%s %s: not quiescent: %v", side, placement, err)
					}
					eng.Unregister(r2)
				}
			}

			// Serial order over many reducers: the current trace and three
			// successive deposits each append their letter to the reducers
			// they touch (round k skips every reducer with (i+k)%3 == 0, so
			// each merge mixes reduces, adopts and untouched slots).
			for _, n := range []int{1, 8, 300, 1100} {
				rs := make([]*core.Reducer, n)
				want := make([]string, n)
				for i := range rs {
					rs[i], _ = eng.Register(catMonoid)
				}
				round := func(c *sched.Context, k int) {
					for i, r := range rs {
						if (i+k)%3 != 0 {
							core.Lookup(eng, c, r).(*catView).s += string(rune('a' + k))
						}
					}
				}
				if err := s.Run(func(c *sched.Context) {
					w := c.Worker()
					round(c, 0)
					for k := 1; k <= 3; k++ {
						tr := eng.BeginTrace(w)
						round(c, k)
						d := eng.EndTrace(w, tr)
						eng.Merge(w, w.CurrentTrace(), d)
					}
				}); err != nil {
					t.Fatalf("width %d: Run: %v", n, err)
				}
				for k := 0; k <= 3; k++ {
					for i := range want {
						if (i+k)%3 != 0 {
							want[i] += string(rune('a' + k))
						}
					}
				}
				for i, r := range rs {
					if got := r.Value().(*catView).s; got != want[i] {
						t.Fatalf("width %d: reducer %d = %q, want %q", n, i, got, want[i])
					}
					eng.Unregister(r)
				}
				if err := eng.Quiescent(); err != nil {
					t.Fatalf("width %d: not quiescent: %v", n, err)
				}
			}
		})
	}
}
