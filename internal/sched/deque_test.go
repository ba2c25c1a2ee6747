package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// numberedTasks returns n tasks and each one's index, by which the stress
// tests count claims.  The map is only read once the thieves start.
func numberedTasks(n int) ([]*task, map[*task]int) {
	tasks, index := make([]*task, n), make(map[*task]int, n)
	for i := range tasks {
		tasks[i] = &task{}
		index[tasks[i]] = i
	}
	return tasks, index
}

// TestDequeGrowth pushes far past the initial buffer capacity without any
// pops, then drains from both ends, checking FIFO order at the top and LIFO
// order at the bottom.
func TestDequeGrowth(t *testing.T) {
	var d deque
	const n = dequeInitialSize*8 + 3
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = &task{}
		d.pushBottom(tasks[i])
	}
	if d.size() != n {
		t.Fatalf("size = %d, want %d", d.size(), n)
	}
	// Steal the oldest half in FIFO order.
	for i := 0; i < n/2; i++ {
		got := d.stealTop()
		if got != tasks[i] {
			t.Fatalf("stealTop %d: got task %v, want %d", i, got, i)
		}
	}
	// Pop the rest in LIFO order.
	for i := n - 1; i >= n/2; i-- {
		got := d.popBottom()
		if got != tasks[i] {
			t.Fatalf("popBottom: got %v, want task %d", got, i)
		}
	}
	if d.popBottom() != nil || d.stealTop() != nil || d.size() != 0 {
		t.Fatal("deque should be empty after draining")
	}
}

// TestDequeStressOwnerVsThieves hammers one deque with its owner (pushing
// in bursts and popping) and several concurrent thieves.  Every task must
// be claimed exactly once — the Chase–Lev last-element race must never
// hand one task to two claimants or lose one.  Run with -race to exercise
// the memory-ordering assumptions.
func TestDequeStressOwnerVsThieves(t *testing.T) {
	const total = 100_000
	const nThieves = 4
	var d deque
	tasks, index := numberedTasks(total)
	claims := make([]atomic.Int32, total)
	var stolen atomic.Int64
	var wg sync.WaitGroup
	var stop atomic.Bool
	for k := 0; k < nThieves; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if tk := d.stealTop(); tk != nil {
					claims[index[tk]].Add(1)
					stolen.Add(1)
					continue
				}
				if stop.Load() {
					return
				}
				runtime.Gosched()
			}
		}()
	}
	// Owner: push in bursts of varying size, popping one task every few
	// pushes so the bottom end stays hot.
	popped := 0
	i := 0
	for i < total {
		burst := 1 + i%7
		for j := 0; j < burst && i < total; j++ {
			d.pushBottom(tasks[i])
			i++
		}
		if i%3 == 0 {
			if tk := d.popBottom(); tk != nil {
				claims[index[tk]].Add(1)
				popped++
			}
		}
	}
	// Drain whatever the thieves have not taken.
	for {
		tk := d.popBottom()
		if tk == nil {
			break
		}
		claims[index[tk]].Add(1)
		popped++
	}
	stop.Store(true)
	wg.Wait()
	for idx := range claims {
		if got := claims[idx].Load(); got != 1 {
			t.Fatalf("task %d claimed %d times, want exactly 1", idx, got)
		}
	}
	if popped+int(stolen.Load()) != total {
		t.Fatalf("popped %d + stolen %d != total %d", popped, stolen.Load(), total)
	}
}

// TestDequeStressForkPattern replays Fork's exact access pattern — push
// one task, do some work, conditionally pop it back — against concurrent
// thieves.  Each task must be executed exactly once, by the owner iff
// popBottom returned it; it never returns another, as it is the only one the
// owner has in the deque.
func TestDequeStressForkPattern(t *testing.T) {
	const total = 100_000
	const nThieves = 3
	var d deque
	tasks, index := numberedTasks(total)
	claims := make([]atomic.Int32, total)
	var stolen atomic.Int64
	var wg sync.WaitGroup
	var stop atomic.Bool
	for k := 0; k < nThieves; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if tk := d.stealTop(); tk != nil {
					claims[index[tk]].Add(1)
					stolen.Add(1)
					continue
				}
				if stop.Load() {
					return
				}
				runtime.Gosched()
			}
		}()
	}
	ownerRan, foreign := 0, 0
	spin := 0
	for i := 0; i < total; i++ {
		tk := tasks[i]
		d.pushBottom(tk)
		// A little "left branch" work so thieves get a window.
		spin += i % 13
		switch d.popBottom() {
		case tk:
			claims[i].Add(1)
			ownerRan++
		case nil:
		default:
			foreign++
		}
	}
	stop.Store(true)
	wg.Wait()
	_ = spin
	if foreign != 0 {
		t.Fatalf("popBottom returned a task other than the one just pushed %d times", foreign)
	}
	for idx := range claims {
		if got := claims[idx].Load(); got != 1 {
			t.Fatalf("task %d claimed %d times, want exactly 1", idx, got)
		}
	}
	if ownerRan+int(stolen.Load()) != total {
		t.Fatalf("owner %d + stolen %d != total %d", ownerRan, stolen.Load(), total)
	}
	if testing.Verbose() {
		t.Logf("owner ran %d, thieves stole %d", ownerRan, stolen.Load())
	}
}
