package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// TestEngineSurface guards the Engine interface against growing another
// lookup generation: eight methods of its own (register, unregister, one
// lookup and the instrumentation) plus the seven sched.ReducerRuntime hooks
// (root merge and quiescence among them).
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

// TestJobSurface pins the ways to run a job as TestEngineSurface pins
// lookups: three Run variants over one private body on the runtime and the
// session, one Submit on the service, and so none of the entry points
// earlier PRs folded into them (RunAndMerge, RunRoot, SubmitAndWait); and
// the context's method set, the spawn primitives among them.
func TestJobSurface(t *testing.T) {
	// entryPoints returns typ's exported methods named prefix or
	// prefix+CamelCase ("Runtime" is an accessor, not a Run variant).
	entryPoints := func(typ reflect.Type, prefix string) []string {
		var names []string
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			rest, ok := strings.CutPrefix(name, prefix)
			if ok && (rest == "" || rest[0] >= 'A' && rest[0] <= 'Z') {
				names = append(names, name)
			}
		}
		return names // reflect lists methods in name order
	}
	runs := []string{"Run", "RunContext", "RunErr"}
	for _, typ := range []reflect.Type{reflect.TypeFor[*sched.Runtime](), reflect.TypeFor[*core.Session]()} {
		if got := entryPoints(typ, "Run"); !slices.Equal(got, runs) {
			t.Errorf("%v Run* methods = %v, want %v", typ, got, runs)
		}
		if got := entryPoints(typ, "Submit"); len(got) != 0 {
			t.Errorf("%v has Submit* methods %v, want none", typ, got)
		}
	}
	svc := reflect.TypeFor[*sched.Service]()
	if got := entryPoints(svc, "Submit"); !slices.Equal(got, []string{"Submit"}) {
		t.Errorf("%v Submit* methods = %v, want exactly Submit", svc, got)
	}
	if got := entryPoints(svc, "Run"); len(got) != 0 {
		t.Errorf("%v has Run* methods %v, want none", svc, got)
	}
	// What a job can do with its context.  Fork and the two built on it are
	// the only spawns: the scheduler's nesting invariant and the serial
	// order of noncommutative reductions rest on it, so a second spawn
	// primitive does not appear without an edit here that names its caller.
	ctx := []string{"Cancelled", "Fork", "ForkN", "ParallelFor", "ParallelForGrain",
		"Runtime", "ViewEpoch", "Worker", "WorkerID"}
	if got := entryPoints(reflect.TypeFor[*sched.Context](), ""); !slices.Equal(got, ctx) {
		t.Errorf("*sched.Context methods = %v, want %v", got, ctx)
	}
}

// TestOptionSurface pins every independently settable value of the engine
// configuration — the exported cilkm.With* functions of the root package
// and the fields of core.MMConfig, hypermap.Config, reducers.EngineOptions,
// the figure harness's bench.Config and the scheduler's Config, ServiceConfig
// and JobSpec — so a knob cannot (re)appear without an edit here that says
// which two callers need different values.
func TestOptionSurface(t *testing.T) {
	fields := func(typ reflect.Type) []string {
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			names = append(names, typ.Field(i).Name)
		}
		return names
	}
	if got, want := fields(reflect.TypeFor[core.MMConfig]()),
		[]string{"Workers", "Timing", "ModelAddressSpace"}; !slices.Equal(got, want) {
		t.Errorf("core.MMConfig fields = %v, want %v", got, want)
	}
	if got, want := fields(reflect.TypeFor[hypermap.Config]()),
		[]string{"Workers", "Timing"}; !slices.Equal(got, want) {
		t.Errorf("hypermap.Config fields = %v, want %v", got, want)
	}
	if got, want := fields(reflect.TypeFor[bench.Config]()),
		[]string{"MaxWorkers", "Lookups", "Repetitions", "GraphScale", "Seed", "Exporter"}; !slices.Equal(got, want) {
		t.Errorf("bench.Config fields = %v, want %v", got, want)
	}
	if got, want := fields(reflect.TypeFor[reducers.EngineOptions]()),
		[]string{"Timing", "ModelAddressSpace"}; !slices.Equal(got, want) {
		t.Errorf("reducers.EngineOptions fields = %v, want %v", got, want)
	}
	if got, want := fields(reflect.TypeFor[sched.Config]()),
		[]string{"Workers", "Seed", "Reducers"}; !slices.Equal(got, want) {
		t.Errorf("sched.Config fields = %v, want %v", got, want)
	}
	if got, want := fields(reflect.TypeFor[sched.ServiceConfig]()),
		[]string{"Queue", "Admit", "Watchdog"}; !slices.Equal(got, want) {
		t.Errorf("sched.ServiceConfig fields = %v, want %v", got, want)
	}
	if got, want := fields(reflect.TypeFor[sched.JobSpec]()),
		[]string{"Fn", "OnDone", "OnSettle"}; !slices.Equal(got, want) {
		t.Errorf("sched.JobSpec fields = %v, want %v", got, want)
	}

	files, err := filepath.Glob("../../*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("root package sources: %v (%d files)", err, len(files))
	}
	var withs []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
				withs = append(withs, fn.Name.Name)
			}
		}
	}
	slices.Sort(withs)
	want := []string{
		"WithAdmitPolicy",
		"WithMechanism", "WithMetricsExporter", "WithModelAddressSpace", "WithOnDone",
		"WithQueueBound", "WithTiming", "WithWatchdog", "WithWorkers",
	}
	if !slices.Equal(withs, want) {
		t.Errorf("cilkm.With* = %v, want %v", withs, want)
	}
}
