package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestEngineSurface guards the Engine interface against growing another
// lookup generation: ten methods of its own (register, unregister, one
// lookup, root merge, quiescence and the instrumentation) plus the five
// sched.ReducerRuntime hooks.
func TestEngineSurface(t *testing.T) {
	eng := reflect.TypeFor[core.Engine]()
	hooks := reflect.TypeFor[sched.ReducerRuntime]().NumMethod()
	if own := eng.NumMethod() - hooks; own > 10 {
		t.Errorf("core.Engine declares %d methods of its own, want at most 10", own)
	}
	lookups := 0
	for i := 0; i < eng.NumMethod(); i++ {
		if strings.HasPrefix(eng.Method(i).Name, "Lookup") {
			lookups++
		}
	}
	if lookups != 1 {
		t.Errorf("core.Engine has %d Lookup* methods, want exactly one (LookupWord)", lookups)
	}
}
