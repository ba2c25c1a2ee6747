package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/sched"
)

// BenchmarkRegisterChurnDirectory is concurrent register/unregister churn
// through the directory on the memory-mapped engine: one free-list pop and
// one push per pair, each under the directory's lock.
func BenchmarkRegisterChurnDirectory(b *testing.B) {
	eng := core.NewMM(core.MMConfig{Workers: 8})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, err := eng.Register(benchMonoid)
			if err != nil {
				b.Fatal(err)
			}
			eng.Unregister(r)
		}
	})
}

// BenchmarkRegisterChurnDirectoryHypermap is the same churn through the
// hypermap engine, which shares the directory implementation.
func BenchmarkRegisterChurnDirectoryHypermap(b *testing.B) {
	eng := hypermap.New(hypermap.Config{Workers: 8})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, err := eng.Register(benchMonoid)
			if err != nil {
				b.Fatal(err)
			}
			eng.Unregister(r)
		}
	})
}

// BenchmarkRegisterGrowthDirectory registers without unregistering, so
// every allocation takes a fresh address and the page-growth path is
// exercised rather than the free list.
func BenchmarkRegisterGrowthDirectory(b *testing.B) {
	eng := core.NewMM(core.MMConfig{Workers: 8})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Register(benchMonoid); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// lookupAtScale measures the lookup fast path with `live` registered
// reducers, rotating over four of them the way BenchmarkMMLookupRaw does.
// The acceptance criterion is that the 1e5-live figure stays within 10% of
// the small-registry figure: the fast path is one array index plus one
// owner compare, independent of the registry population.
func lookupAtScale(b *testing.B, live int) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, live)
	for i := range rs {
		rs[i], _ = eng.Register(benchMonoid)
	}
	// Rotate over four reducers spread across the registry, as in the Raw
	// benchmarks.
	probes := []*core.Reducer{rs[0], rs[live/3], rs[2*live/3], rs[live-1]}
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		idx := 0
		for i := 0; i < b.N; i++ {
			core.Lookup(eng, c, probes[idx]).(*benchView).v++
			idx++
			if idx == len(probes) {
				idx = 0
			}
		}
	})
}

func BenchmarkMMLookup4Live(b *testing.B)    { lookupAtScale(b, 4) }
func BenchmarkMMLookup100kLive(b *testing.B) { lookupAtScale(b, 100_000) }
