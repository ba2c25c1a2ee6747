// Package epochbump checks that every view-retirement path publishes a
// lookup-cache invalidation.
//
// The typed reducer handles cache (reducer, view) resolutions against a
// per-worker epoch counter.  Any operation that retires or moves a view —
// crossing a trace boundary, merging child views, dropping a retired
// reducer's view from a recycled SPA slot — must bump that epoch
// (Worker.BumpViewEpoch) before the old view word can be recycled.  A view
// dies only on the worker that holds it, so each of these paths bumps its
// own worker's epoch; unregistering a reducer kills no view and need not
// bump.
// Forgetting the bump does not crash: the stale cache
// entry keeps resolving to the retired view and updates are silently lost
// into freed memory.  That failure mode survives tests unless a schedule
// happens to re-read through the stale entry, which is exactly the kind of
// invariant a checker should carry instead of a reviewer.
//
// The analyzer matches function declarations against the -funcs regexp
// (rendered as Name or Recv.Name) and verifies that each one can reach a
// call to one of the -bumps functions through same-package calls.  The
// reachability walk is a whole-body over-approximation: a bump behind a
// conditional satisfies it.  That is deliberate — the checker enforces
// "this path was written with invalidation in mind", and the fine-grained
// branch coverage belongs to the race and chaos suites.
package epochbump

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis/framework"
)

// DefaultFuncs matches the retirement entry points of the reducer runtime:
// the trace and merge hooks of core.Skeleton, which both engines embed, its
// abort path and its lookup miss, which drops stale occupants of recycled
// addresses.  They are every function in which a view dies or leaves the
// current trace's store; the stores' own walks (which free the views) run
// only under them.  Unregistering and growing the SPA address range move no
// view, so neither Base.Unregister nor the directory's growth hook is one.
// The walk stays within one package, so an engine-side wrapper that calls a
// hook in core would need an entry of its own; neither engine has one.
const DefaultFuncs = `^Skeleton\.(BeginTrace|EndTrace|abortTrace|Merge|LookupMiss)$`

// DefaultBumps are the blessed invalidation publishers.
const DefaultBumps = "BumpViewEpoch"

// Analyzer is the epochbump analyzer.
var Analyzer = &framework.Analyzer{
	Name: "epochbump",
	Doc:  "check that view-retirement paths publish a lookup-cache invalidation",
	Run:  run,
}

var (
	funcsFlag string
	bumpsFlag string
)

func init() {
	Analyzer.Flags.StringVar(&funcsFlag, "funcs", DefaultFuncs, "regexp of functions (Name or Recv.Name) that must reach an invalidation bump")
	Analyzer.Flags.StringVar(&bumpsFlag, "bumps", DefaultBumps, "comma-separated names of functions that publish an invalidation")
}

// declInfo is the per-function slice of the same-package call graph.
type declInfo struct {
	decl    *ast.FuncDecl
	callees map[*types.Func]bool
	bumps   bool // directly calls one of the -bumps functions
}

func run(pass *framework.Pass) error {
	funcsRe, err := regexp.Compile(funcsFlag)
	if err != nil {
		return fmt.Errorf("epochbump: bad -funcs regexp: %w", err)
	}
	bumpNames := make(map[string]bool)
	for _, b := range strings.Split(bumpsFlag, ",") {
		if b = strings.TrimSpace(b); b != "" {
			bumpNames[b] = true
		}
	}

	// Build the same-package call graph over function declarations.
	graph := make(map[*types.Func]*declInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &declInfo{decl: fd, callees: make(map[*types.Func]bool)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(pass, call)
				if callee == nil {
					return true
				}
				if bumpNames[callee.Name()] {
					info.bumps = true
				}
				if callee.Pkg() == pass.Pkg {
					info.callees[callee.Origin()] = true
				}
				return true
			})
			graph[obj.Origin()] = info
		}
	}

	// Check every matched declaration for reachability of a bump.
	for obj, info := range graph {
		if !funcsRe.MatchString(declKey(obj)) {
			continue
		}
		if !reachesBump(graph, obj, make(map[*types.Func]bool)) {
			pass.Reportf(info.decl.Name.Pos(),
				"%s retires or moves views but never reaches %s; stale lookup-cache entries will resolve to the retired view",
				declKey(obj), strings.Join(sortedNames(bumpNames), " or "))
		}
	}
	return nil
}

// reachesBump walks the same-package call graph from obj looking for a
// declaration that directly calls a bump function.
func reachesBump(graph map[*types.Func]*declInfo, obj *types.Func, seen map[*types.Func]bool) bool {
	if seen[obj] {
		return false
	}
	seen[obj] = true
	info, ok := graph[obj]
	if !ok {
		return false
	}
	if info.bumps {
		return true
	}
	for callee := range info.callees {
		if reachesBump(graph, callee, seen) {
			return true
		}
	}
	return false
}

// calleeOf resolves the function or method a call statically invokes, or
// nil for indirect calls, conversions and builtins.
func calleeOf(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.IndexExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			f, _ := pass.TypesInfo.Uses[id].(*types.Func)
			return f
		}
	case *ast.IndexListExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			f, _ := pass.TypesInfo.Uses[id].(*types.Func)
			return f
		}
	}
	return nil
}

// declKey renders a function object as Name or Recv.Name, the notation the
// -funcs regexp matches against.
func declKey(obj *types.Func) string {
	if recv := obj.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			return named.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Name()
}

// sortedNames returns the set's keys in stable order for diagnostics.
func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
