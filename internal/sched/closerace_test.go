package sched

import (
	"sync"
	"testing"
	"time"
)

// TestCloseRacingRun races Runtime.Close against a burst of concurrent Run
// calls that take turns for worker 0: every Run must either complete its job
// normally or return ErrClosed — never a hang, never a lost job, even when
// the pool has stopped under a root that is still running.  The -race build
// additionally checks the caller/quit/park handshakes involved.
func TestCloseRacingRun(t *testing.T) {
	for round := 0; round < 40; round++ {
		rt := New(Config{Workers: 4})
		const callers = 6
		var wg sync.WaitGroup
		errs := make([]error, callers)
		for g := 0; g < callers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = rt.Run(func(c *Context) {
					c.ParallelForGrain(0, 32, 1, func(c *Context, i int) {
						time.Sleep(time.Microsecond)
					})
				})
			}()
		}
		// Close somewhere in the middle of the burst: sometimes before any
		// Run lands, sometimes while jobs are executing.
		time.Sleep(time.Duration(round%5) * 50 * time.Microsecond)
		done := make(chan struct{})
		go func() { rt.Close(); close(done) }()
		wg.Wait()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Close hung with concurrent Run calls", round)
		}
		for g, err := range errs {
			if err != nil && err != ErrClosed {
				t.Fatalf("round %d: caller %d got %v, want nil or ErrClosed", round, g, err)
			}
		}
		// A second Close is a no-op; Run after Close reports ErrClosed.
		rt.Close()
		if err := rt.Run(func(*Context) {}); err != ErrClosed {
			t.Fatalf("round %d: Run after Close returned %v, want ErrClosed", round, err)
		}
	}
}
