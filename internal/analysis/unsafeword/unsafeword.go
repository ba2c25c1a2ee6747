// Package unsafeword confines unsafe.Pointer conversions to the blessed
// view-word helpers.
//
// The paper's 16-byte SPA slot packs a view as a single machine word plus
// a flag-tagged owner stamp.  The GC-safety argument for that layout (see
// internal/core/word.go) holds only while every conversion between typed
// pointers, unsafe.Pointer and uintptr goes through a small set of audited
// helpers: the one kernel type that closes a typed monoid over view words,
// the owner-stamp pair, the spa tag/untag helpers, the arena allocator, a
// trace's zero block, and the typed handles' word-to-*V resolution.  A conversion anywhere else is
// either a new unaudited entry point into the unsafe representation or an
// accidental pointer/integer round-trip the collector cannot see.
//
// The analyzer flags, outside an allowlist of fully-qualified functions:
//
//   - conversions to unsafe.Pointer
//   - conversions from unsafe.Pointer to a typed pointer
//   - conversions from unsafe.Pointer to uintptr
//   - calls to unsafe.Add, unsafe.Slice, unsafe.SliceData, unsafe.String
//     and unsafe.StringData
//
// Purely integral uintptr conversions are not pointer conversions and are
// never flagged.  _test.go files are skipped by default (-includetests
// restores them): tests assert on slot layouts and forge view words on
// purpose.
//
// The allowlist is the -allow flag: comma-separated path.Match patterns
// over "importpath.Func" or "importpath.Type.Method" names, with this
// module's audited helpers as the default.  One-off exceptions belong in a
// //cilkvet:allow unsafeword suppression with a justification instead.
package unsafeword

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"repro/internal/analysis/framework"
)

// DefaultAllow is the default allowlist: the audited unsafe helpers of
// this module.  Everything here has a documented GC-safety argument at its
// definition.
var DefaultAllow = strings.Join([]string{
	// The word-level kernel core.NewMonoid builds: its methods are the only
	// place a view word becomes a *V and back on the engines' side.
	"repro/internal/core.typedKernel.*",
	"repro/internal/core.arenaKernel.seed",
	// The owner-stamp word used in SPA slots and hypermap entries, and
	// its one inverse.
	"repro/internal/core.ownerWord",
	"repro/internal/core.reducerOf",
	// The per-worker view arena carves views out of pointer-free chunks.
	"repro/internal/core.viewArena.alloc",
	// The spa slot tag helpers: flags live in the stamp's low bits.
	"repro/internal/spa.tagOwner",
	"repro/internal/spa.untagOwner",
	"repro/internal/spa.Slot.*",
	// A trace's zero block is lent to read-only first lookups as a view
	// word: the address of a pointer-free array inside a live map set or
	// hypermap, which the lent word keeps alive.
	"repro/internal/spa.ZeroBlock.Lend",
	// Typed handles resolve a view word back to *V.
	"repro/internal/reducers.Handle.viewMiss",
}, ",")

// Analyzer is the unsafeword analyzer.
var Analyzer = &framework.Analyzer{
	Name: "unsafeword",
	Doc:  "confine unsafe.Pointer conversions to the blessed view-word helpers",
	Run:  run,
}

var (
	allowFlag    string
	includeTests bool
)

func init() {
	Analyzer.Flags.StringVar(&allowFlag, "allow", DefaultAllow, "comma-separated patterns of functions allowed to convert unsafe pointers")
	Analyzer.Flags.BoolVar(&includeTests, "includetests", false, "also check _test.go files, which legitimately probe the unsafe representation")
}

func run(pass *framework.Pass) error {
	patterns := strings.Split(allowFlag, ",")
	allowed := func(fn string) bool {
		for _, p := range patterns {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if ok, _ := path.Match(p, fn); ok {
				return true
			}
		}
		return false
	}

	for _, f := range pass.Files {
		if !includeTests && strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			// Tests assert on slot layouts and forge view words on
			// purpose; the invariant protects production code paths.
			continue
		}
		var fnStack []string
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			if fd, ok := n.(*ast.FuncDecl); ok {
				fnStack = fnStack[:0]
				fnStack = append(fnStack, declName(pass, fd))
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind := classify(pass, call)
			if kind == "" {
				return true
			}
			fn := ""
			if len(fnStack) > 0 {
				fn = fnStack[len(fnStack)-1]
			}
			if fn != "" && allowed(fn) {
				return true
			}
			pass.Reportf(call.Pos(), "%s outside the blessed view-word helpers; keep view words opaque outside the monoid kernel and the spa tag helpers, or add the containing function to the unsafeword allowlist", kind)
			return true
		})
	}
	return nil
}

// declName renders a function declaration as importpath.Func or
// importpath.Type.Method, matching the allowlist syntax.
func declName(pass *framework.Pass, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if r := recvName(fd.Recv.List[0].Type); r != "" {
			name = r + "." + name
		}
	}
	return pass.Pkg.Path() + "." + name
}

// recvName unwraps a receiver type expression to its bare type name.
func recvName(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr:
			expr = t.X
		case *ast.IndexListExpr:
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// classify returns a description of the unsafe conversion the call
// performs, or "" when it is not one.
func classify(pass *framework.Pass, call *ast.CallExpr) string {
	// unsafe.Add / unsafe.Slice / ... builtin calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "unsafe" {
				switch sel.Sel.Name {
				case "Add", "Slice", "SliceData", "String", "StringData":
					return "unsafe." + sel.Sel.Name + " call"
				}
			}
		}
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return ""
	}
	dst := tv.Type
	src := pass.TypesInfo.TypeOf(call.Args[0])
	if src == nil {
		return ""
	}
	switch {
	case isUnsafePointer(dst) && !isUnsafePointer(src):
		return "conversion to unsafe.Pointer"
	case isUnsafePointer(src) && isTypedPointer(dst):
		return "conversion from unsafe.Pointer to " + typeString(dst)
	case isUnsafePointer(src) && isUintptr(dst):
		return "unsafe.Pointer escaping to uintptr"
	}
	return ""
}

func isUnsafePointer(t types.Type) bool {
	b, ok := types.Unalias(t).(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}

func isTypedPointer(t types.Type) bool {
	_, ok := types.Unalias(t).Underlying().(*types.Pointer)
	return ok
}

func isUintptr(t types.Type) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uintptr
}

func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
