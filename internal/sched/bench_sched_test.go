package sched

import (
	"runtime"
	"testing"
)

// BenchmarkForkNoSteal measures the serial fast path of Fork: a single
// worker forks trivial branches, so no continuation is ever stolen and the
// paper's "no-steal runs like serial code" property is exercised directly.
// The target is 0 allocs/op: task and join objects must come from the
// worker's free lists.
func BenchmarkForkNoSteal(b *testing.B) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	b.ReportAllocs()
	_ = rt.Run(func(c *Context) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Fork(func(*Context) {}, func(*Context) {})
		}
	})
}

// BenchmarkForkNoStealDepth8 forks through a small recursion so the deque
// holds several continuations at once, exercising pushBottom/popBottom at
// depth rather than at a constantly-empty deque.
func BenchmarkForkNoStealDepth8(b *testing.B) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	var rec func(c *Context, d int)
	rec = func(c *Context, d int) {
		if d == 0 {
			return
		}
		c.Fork(
			func(c *Context) { rec(c, d-1) },
			func(c *Context) { rec(c, d-1) },
		)
	}
	b.ReportAllocs()
	_ = rt.Run(func(c *Context) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec(c, 8)
		}
	})
}

// BenchmarkStealThroughput measures the cost of moving tasks through the
// deque from the thief's end: batches are pushed at the bottom and drained
// entirely by stealTop.  With the Chase–Lev deque each steal is one CAS
// (O(1)); the old mutex deque shifted the whole remaining slice per steal
// (O(n)), so this benchmark degrades quadratically in the batch size there.
func BenchmarkStealThroughput(b *testing.B) {
	const batch = 4096
	var d deque
	tasks := make([]*task, batch)
	for i := range tasks {
		tasks[i] = &task{}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		for _, t := range tasks {
			d.pushBottom(t)
		}
		for d.stealTop() != nil {
		}
	}
}

// BenchmarkParallelForOverhead runs a grain-1 parallel loop with a trivial
// body, measuring the end-to-end per-iteration cost of ParallelFor's
// recursive fork tree.  A split's continuation is the pooled task carrying
// its range, so it must report 0 allocs/op (a steal's objects, rare here,
// round away over b.N iterations).
func BenchmarkParallelForOverhead(b *testing.B) {
	rt := New(Config{Workers: runtime.GOMAXPROCS(0)})
	defer rt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	_ = rt.Run(func(c *Context) {
		c.ParallelForGrain(0, b.N, 1, func(*Context, int) {})
	})
}

// BenchmarkParallelForFib computes fib(20) by naive binary Fork recursion
// with no serial cutoff — the classic Cilk fork-overhead stress test (about
// 10946 forks per fib call, nearly all resolved on the fast path).
func BenchmarkParallelForFib(b *testing.B) {
	rt := New(Config{Workers: runtime.GOMAXPROCS(0)})
	defer rt.Close()
	var fib func(c *Context, n int, out *int64)
	fib = func(c *Context, n int, out *int64) {
		if n < 2 {
			*out = int64(n)
			return
		}
		var x, y int64
		c.Fork(
			func(c *Context) { fib(c, n-1, &x) },
			func(c *Context) { fib(c, n-2, &y) },
		)
		*out = x + y
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int64
		_ = rt.Run(func(c *Context) { fib(c, 20, &out) })
		if out != 6765 {
			b.Fatalf("fib(20) = %d, want 6765", out)
		}
	}
}
