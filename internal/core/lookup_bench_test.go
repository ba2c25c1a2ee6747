package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// benchView holds a pointer so the benchmarks' first lookups and merges
// stay on the heap path they have always timed.
type benchView struct {
	v int64
	_ *byte
}

var benchMonoid = core.NewMonoid(reducers.TypedFuncMonoid[benchView]{
	IdentityFn: func() *benchView { return &benchView{} },
	ReduceFn: func(l, r *benchView) *benchView {
		l.v += r.v
		return l
	}})

// The three lookup benchmarks time the engines' one lookup, LookupWord, over
// four rotating reducers: on the concrete *MM (what a typed handle's miss
// path calls), through the Engine interface (what everyone else calls), and
// on the concrete hypermap engine.

func BenchmarkMMLookupRaw(b *testing.B) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, 4)
	for i := range rs {
		rs[i], _ = eng.Register(benchMonoid)
	}
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		idx := 0
		for i := 0; i < b.N; i++ {
			word, _ := eng.LookupWord(c, rs[idx], 0, true)
			(*benchView)(word).v++
			idx++
			if idx == 4 {
				idx = 0
			}
		}
	})
}

func BenchmarkMMLookupViaInterface(b *testing.B) {
	var eng core.Engine = core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, 4)
	for i := range rs {
		rs[i], _ = eng.Register(benchMonoid)
	}
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		idx := 0
		for i := 0; i < b.N; i++ {
			word, _ := eng.LookupWord(c, rs[idx], 0, true)
			(*benchView)(word).v++
			idx++
			if idx == 4 {
				idx = 0
			}
		}
	})
}

func BenchmarkHypermapLookupRaw(b *testing.B) {
	eng := hypermap.New(hypermap.Config{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, 4)
	for i := range rs {
		rs[i], _ = eng.Register(benchMonoid)
	}
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		idx := 0
		for i := 0; i < b.N; i++ {
			word, _ := eng.LookupWord(c, rs[idx], 0, true)
			(*benchView)(word).v++
			idx++
			if idx == 4 {
				idx = 0
			}
		}
	})
}

func BenchmarkBaselineArray(b *testing.B) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	cells := make([]benchView, 4)
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		idx := 0
		for i := 0; i < b.N; i++ {
			cells[idx].v++
			idx++
			if idx == 4 {
				idx = 0
			}
		}
	})
}
