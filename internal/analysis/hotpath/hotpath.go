// Package hotpath keeps locked instructions off the per-view paths.
//
// A reducer lookup, a first-touch view creation and an arena alloc or free
// run once per view per steal; a LOCK-prefixed read-modify-write on any of
// them costs more than the work it counts.  The runtime's idiom is
// therefore "tick a plain owner-only field, flush it where the trace
// ends" (metrics.Tally, flushed by metrics.Totals.Flush), and three
// separate PRs had to remove an atomic counter that crept back onto one of
// these paths, each found only by profiling.  This analyzer carries the
// rule instead: a function whose doc comment holds
//
//	//cilkvet:hotpath
//
// may not directly call a sync/atomic read-modify-write or store — the
// Add, And, Or, Swap, CompareAndSwap and Store methods of the atomic types
// and the package functions of the same families — nor any method of
// sync.Mutex or sync.RWMutex, nor the Add, Store and Max of
// metrics.PaddedCounter, which are an atomic add, an atomic store and a
// CAS loop behind a method call.  Atomic loads are plain loads on the
// platforms the runtime targets and stay legal.  Function literals inside
// a tagged function are part of it.
//
// The check is deliberately direct-call only: a tagged function may call an
// untagged one that locks (a rare slow path behind a predictable branch,
// say).  The tag marks the functions whose own bodies are
// the hot shape; tag a callee to extend the rule to it.
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the hotpath analyzer.
var Analyzer = &framework.Analyzer{
	Name: "hotpath",
	Doc:  "report locked instructions called directly from //cilkvet:hotpath functions",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !framework.HasDirective(fd.Doc, "hotpath") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if callee, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
					if what := locked(callee); what != "" {
						pass.Reportf(call.Pos(), "%s is marked //cilkvet:hotpath but calls %s; tick an owner-only field and flush it at trace end", fd.Name.Name, what)
					}
				}
				return true
			})
		}
	}
	return nil
}

// paddedCounterLocked names the metrics.PaddedCounter methods that execute
// a locked instruction.
var paddedCounterLocked = map[string]bool{"Add": true, "Store": true, "Max": true}

// locked describes callee when it is a locked operation — a sync/atomic
// read-modify-write or store, a sync.Mutex/RWMutex method, or one of
// metrics.PaddedCounter's — and returns "" otherwise.
func locked(callee *types.Func) string {
	if callee.Pkg() == nil {
		return ""
	}
	recv := ""
	if r := callee.Signature().Recv(); r != nil {
		t := r.Type()
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := types.Unalias(t).(*types.Named)
		if !ok {
			return ""
		}
		recv = named.Obj().Name()
	}
	switch callee.Pkg().Path() {
	case "sync/atomic":
		if strings.HasPrefix(callee.Name(), "Load") {
			return ""
		}
		if recv != "" {
			return "atomic." + recv + "." + callee.Name()
		}
		return "atomic." + callee.Name()
	case "sync":
		if recv == "Mutex" || recv == "RWMutex" {
			return "sync." + recv + "." + callee.Name()
		}
	case "repro/internal/metrics":
		if recv == "PaddedCounter" && paddedCounterLocked[callee.Name()] {
			return "metrics.PaddedCounter." + callee.Name()
		}
	}
	return ""
}
