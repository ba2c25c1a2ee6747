package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// mustPanic runs f and fails the test unless f panics with a message that
// contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
			t.Errorf("panic = %q, want one containing %q", got, want)
		}
	}()
	f()
}

// TestEngineServesOneRuntime pins the binding of an engine to a runtime: the
// first runtime built over an engine is the one it serves, a second runtime
// over it, or one with more workers than the engine was built for, panics
// while it is being constructed, and a runtime with fewer workers is served.
func TestEngineServesOneRuntime(t *testing.T) {
	for _, m := range reducers.Mechanisms() {
		newEngine := func(workers int) core.Engine { return reducers.NewEngine(m, workers, reducers.EngineOptions{}) }
		t.Run(m.String(), func(t *testing.T) {
			eng := newEngine(1)
			s := core.NewSession(1, eng)
			defer s.Close()
			mustPanic(t, "already serves another runtime", func() { core.NewSession(1, eng).Close() })
			mustPanic(t, "built for 1 workers cannot serve a runtime of 2", func() {
				core.NewSession(2, newEngine(1)).Close()
			})

			eng = newEngine(2)
			small := core.NewSession(1, eng)
			defer small.Close()
			r, err := eng.Register(sumMonoid)
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
			if err := small.Run(func(c *sched.Context) {
				c.ParallelFor(0, 100, func(c *sched.Context, i int) {
					core.Lookup(eng, c, r).(*sumView).v++
				})
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := r.Value().(*sumView).v; got != 100 {
				t.Fatalf("sum = %d, want 100", got)
			}
			if err := small.Quiescent(); err != nil {
				t.Fatalf("not quiescent: %v", err)
			}
		})
	}
}
