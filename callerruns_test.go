package cilkm_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	cilkm "repro"
)

// TestConcurrentRunCallersMatchSerial has several goroutines call Run on one
// session at once.  The goroutine inside Run is the session's worker 0, and
// only one can be: the others wait their turn.  Each caller's
// noncommutative list must equal the serial walk of its own tree.
func TestConcurrentRunCallersMatchSerial(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/W=%d", mech, workers), func(t *testing.T) {
				s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(workers))
				defer s.Close()
				const callers, rounds = 4, 12
				var wg sync.WaitGroup
				for g := 0; g < callers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(100*workers + g)))
						for r := 0; r < rounds; r++ {
							tree := genTree(rng, 60)
							var want []int
							serialTrace(tree, &want)
							list := cilkm.NewList[int](s.Engine())
							err := s.Run(func(c *cilkm.Context) {
								if id := c.WorkerID(); id < 0 || id >= s.Workers() {
									t.Errorf("caller %d: root has WorkerID %d of %d", g, id, s.Workers())
								}
								parallelTrace(c, list, tree, r%4 == 0)
							})
							got := list.Value()
							list.Close()
							if err != nil {
								t.Errorf("caller %d round %d: Run: %v", g, r, err)
								return
							}
							if !slices.Equal(got, want) {
								t.Errorf("caller %d round %d: list diverged from the serial walk (%d values, want %d)", g, r, len(got), len(want))
								return
							}
						}
					}()
				}
				wg.Wait()
				if err := s.Quiescent(); err != nil {
					t.Fatal(err)
				}
				if got := s.Runtime().Stats().RootTasks; got != callers*rounds {
					t.Errorf("%d root tasks counted, want %d", got, callers*rounds)
				}
			})
		}
	}
}

// TestCallerFailuresLeaveSessionQuiescent fails a job that runs on its
// caller's goroutine: by a panic that Run re-raises there, by one RunErr
// returns, and by a context cancelled while the caller — who therefore
// cannot be waiting on it — runs the job.  One worker means no pool, so the
// caller's goroutine is the only place any of it can have run.  After each,
// the session holds no trace of the job and the next one is exact.
func TestCallerFailuresLeaveSessionQuiescent(t *testing.T) {
	for _, mech := range cilkm.Mechanisms() {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/W=%d", mech, workers), func(t *testing.T) {
				s := cilkm.New(cilkm.WithMechanism(mech), cilkm.WithWorkers(workers))
				defer s.Close()
				sum := cilkm.NewAdd[int](s.Engine())
				quiescent := func(after string) {
					t.Helper()
					if err := s.Quiescent(); err != nil {
						t.Fatalf("after %s: %v", after, err)
					}
					if got := sum.Value(); got != 0 {
						t.Fatalf("after %s: the failed job left %d in the reducer", after, got)
					}
				}
				boom := func(c *cilkm.Context) {
					c.ParallelForGrain(0, 64, 1, func(c *cilkm.Context, i int) {
						sum.Add(c, 1)
						if i == 40 {
							panic("boom")
						}
					})
				}

				func() {
					defer func() {
						var pe *cilkm.PanicError
						if err, _ := recover().(error); !errors.As(err, &pe) || pe.Value != "boom" {
							t.Errorf("Run re-raised %v, want a *PanicError for \"boom\"", err)
						}
						quiescent("a panic recovered by Run's caller")
					}()
					_ = s.Run(boom)
				}()
				var pe *cilkm.PanicError
				if err := s.RunErr(boom); !errors.As(err, &pe) || pe.Value != "boom" {
					t.Errorf("RunErr = %v, want a *PanicError for \"boom\"", err)
				}
				quiescent("a panic contained by RunErr")

				ctx, cancel := context.WithCancel(context.Background())
				err := s.RunContext(ctx, func(c *cilkm.Context) {
					c.ParallelForGrain(0, 1<<20, 1, func(c *cilkm.Context, i int) {
						sum.Add(c, 1)
						if i == 0 {
							cancel()
						}
					})
				})
				if !errors.Is(err, context.Canceled) {
					t.Errorf("RunContext = %v, want context.Canceled", err)
				}
				quiescent("a cancelled RunContext")

				if err := s.Run(func(c *cilkm.Context) {
					c.ParallelFor(0, 1000, func(c *cilkm.Context, i int) { sum.Add(c, 1) })
				}); err != nil {
					t.Fatal(err)
				}
				if got := sum.Value(); got != 1000 {
					t.Errorf("clean job after the failures summed %d, want 1000", got)
				}
			})
		}
	}
}
