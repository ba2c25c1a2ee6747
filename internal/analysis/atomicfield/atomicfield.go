// Package atomicfield reports struct fields that are accessed both through
// sync/atomic functions and through plain loads or stores.
//
// The lock-free runtime mixes two atomicity idioms: typed atomics
// (atomic.Uint64 and friends, which the type system keeps honest) and
// sync/atomic function calls on plain integer fields (PBFS's dist array,
// whose claim is a compare-and-swap on each element).  The second idiom
// has a classic failure mode: one new call site reads or writes the field
// directly, the race detector only catches it on schedules the tests
// happen to run, and the result is a torn or stale access that corrupts a
// distance or an epoch.  This analyzer makes the convention
// compiler-checked: once any code in a package touches a field via
// sync/atomic, every other access to that field must be atomic too (or
// carry a //cilkvet:allow atomicfield suppression explaining why a plain
// access is safe, e.g. pre-publication initialisation).
//
// When the atomic calls target elements of a slice or array field
// (atomic.LoadInt32(&x.f[i])), plain *element* accesses are flagged;
// whole-header uses of the field (len, reslicing, passing the slice on)
// are not, since the header itself is not what the atomics protect.
//
// The analysis is per-package: a field accessed atomically in one package
// and plainly in another is not caught unless both uses are visible in one
// pass.  Every field this suite cares about is unexported, so in practice
// the package boundary is also the access boundary.
//
// It also reports every use of the result of a sync/atomic And or Or call,
// the functions (atomic.OrUint32) and the typed atomics' methods
// ((*atomic.Uint32).Or) alike.  go1.24.0 on amd64 miscompiles such a call
// whose result is used inside a loop: the compare-and-exchange retry loop
// it expands to reuses a register that still holds a live loop value, so a
// visited-bitmap claim written as `atomic.OrUint32(w, bit)&bit == 0`
// corrupts its caller.  A call whose result is discarded — a statement of
// its own, a go or defer, or an assignment to the blank identifier — is
// fine: set the bits, then decide with a Load or a CompareAndSwap.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the atomicfield analyzer.
var Analyzer = &framework.Analyzer{
	Name: "atomicfield",
	Doc:  "report mixed sync/atomic and plain accesses to the same struct field, and any used result of a sync/atomic And or Or call",
	Run:  run,
}

// atomicOpPrefixes are the sync/atomic function families whose first
// argument is the address being operated on.
var atomicOpPrefixes = []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or"}

func run(pass *framework.Pass) error {
	reportUsedAndOr(pass)

	// First pass: find every field whose address feeds a sync/atomic call,
	// remembering the exact selector nodes used there (those accesses are
	// sanctioned by construction).
	type fieldUse struct {
		elem bool // atomics target elements of the field, not the field itself
	}
	atomicFields := make(map[*types.Var]*fieldUse)
	sanctioned := make(map[*ast.SelectorExpr]bool)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) || len(call.Args) == 0 {
				return true
			}
			addr, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			target := addr.X
			elem := false
			if idx, ok := target.(*ast.IndexExpr); ok {
				target, elem = idx.X, true
			}
			sel, ok := target.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fv := fieldOf(pass, sel)
			if fv == nil {
				return true
			}
			if u := atomicFields[fv]; u == nil {
				atomicFields[fv] = &fieldUse{elem: elem}
			} else if !elem {
				u.elem = false
			}
			sanctioned[sel] = true
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Second pass: every other access to those fields must be atomic.
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			fv := fieldOf(pass, sel)
			use, tracked := atomicFields[fv]
			if !tracked {
				return true
			}
			if use.elem {
				// Element-wise atomics: flag element reads/writes and
				// element-visiting ranges, not uses of the header.
				switch parent := parentOf(stack).(type) {
				case *ast.IndexExpr:
					if parent.X == sel {
						pass.Reportf(parent.Pos(), "elements of field %s are accessed with sync/atomic; plain element access can tear against concurrent atomics", fieldName(fv))
					}
				case *ast.RangeStmt:
					if parent.X == sel && parent.Value != nil {
						pass.Reportf(sel.Pos(), "elements of field %s are accessed with sync/atomic; ranging over the values reads them non-atomically", fieldName(fv))
					}
				}
				return true
			}
			pass.Reportf(sel.Pos(), "field %s is accessed with sync/atomic; plain access can tear against concurrent atomics", fieldName(fv))
			return true
		})
	}
	return nil
}

// reportUsedAndOr reports every sync/atomic And or Or call whose result
// is used, that is, whose call is neither a statement of its own nor
// assigned to the blank identifier.
func reportUsedAndOr(pass *framework.Pass) {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := atomicAndOr(pass, call)
			if !ok {
				return true
			}
			switch p := parentOf(stack).(type) {
			case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
				return true
			case *ast.AssignStmt:
				if blank(p.Lhs) {
					return true
				}
			}
			pass.Reportf(call.Pos(), "result of sync/atomic %s is used: go1.24.0 on amd64 miscompiles a used And/Or result inside a loop; discard it and decide with a Load or CompareAndSwap", name)
			return true
		})
	}
}

// blank reports whether every one of lhs is the blank identifier.
func blank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		if id, ok := e.(*ast.Ident); !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// atomicAndOr reports whether call is a sync/atomic And or Or: a function
// of the And*/Or* families or the And/Or method of a typed atomic.  It
// returns the name to report.
func atomicAndOr(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if !strings.HasPrefix(name, "And") && !strings.HasPrefix(name, "Or") {
		return "", false
	}
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		fn, ok := s.Obj().(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || s.Kind() != types.MethodVal {
			return "", false
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			return "(*atomic." + named.Obj().Name() + ")." + name, true
		}
		return "", false
	}
	if !isAtomicCall(pass, call) {
		return "", false
	}
	return "atomic." + name, true
}

// parentOf returns the node enclosing the one on top of the stack.
func parentOf(stack []ast.Node) ast.Node {
	if len(stack) < 2 {
		return nil
	}
	return stack[len(stack)-2]
}

// fieldName renders the field for a diagnostic: the declaring struct type
// and field name, not the arbitrary access expression.
func fieldName(fv *types.Var) string {
	if fv.Pkg() != nil {
		if named, ok := fieldOwner(fv); ok {
			return named + "." + fv.Name()
		}
	}
	return fv.Name()
}

// fieldOwner is a best-effort lookup of the struct type name declaring fv.
func fieldOwner(fv *types.Var) (string, bool) {
	// The field's parent scope does not name the struct; scan the package
	// scope for a named struct type containing this exact field object.
	scope := fv.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fv {
				return tn.Name(), true
			}
		}
	}
	return "", false
}

// isAtomicCall reports whether call invokes a sync/atomic function from
// one of the address-taking families.
func isAtomicCall(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgIdent, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return false
	}
	for _, prefix := range atomicOpPrefixes {
		if strings.HasPrefix(sel.Sel.Name, prefix) {
			return true
		}
	}
	return false
}

// fieldOf resolves sel to the struct field it selects, or nil.
func fieldOf(pass *framework.Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return nil
	}
	return v
}
