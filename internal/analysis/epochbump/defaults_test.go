package epochbump_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis/epochbump"
)

// TestDefaultsMatchDeclaredFunctions fails when an alternative of
// DefaultFuncs names no function declared in internal/core, or a name in
// DefaultBumps no function declared in internal/sched.  A pattern that
// matches nothing checks nothing and passes silently, so a renamed
// retirement path would drop out of the check unnoticed.
func TestDefaultsMatchDeclaredFunctions(t *testing.T) {
	core := declared(t, "core")
	// DefaultFuncs has the shape ^Prefix(A|B|...)$; check each alternative
	// on its own.
	open, closing := strings.Index(epochbump.DefaultFuncs, "("), strings.LastIndex(epochbump.DefaultFuncs, ")")
	if open < 0 || closing < open {
		t.Fatalf("DefaultFuncs %q is not of the form ^Prefix(A|B|...)$", epochbump.DefaultFuncs)
	}
	prefix, suffix := epochbump.DefaultFuncs[:open], epochbump.DefaultFuncs[closing+1:]
	for _, alt := range strings.Split(epochbump.DefaultFuncs[open+1:closing], "|") {
		re := regexp.MustCompile(prefix + alt + suffix)
		if !matchesAny(re, core) {
			t.Errorf("DefaultFuncs alternative %s matches no function declared in internal/core", re)
		}
	}

	// Bumps are matched by bare function name, receiver or not.
	sched := declared(t, "sched")
	for _, name := range strings.Split(epochbump.DefaultBumps, ",") {
		if !matchesAny(regexp.MustCompile(`(^|\.)`+regexp.QuoteMeta(name)+`$`), sched) {
			t.Errorf("DefaultBumps name %q matches no function declared in internal/sched", name)
		}
	}
}

// declared returns the non-test functions of internal/<pkg>, keyed Name or
// Recv.Name as the -funcs regexp sees them.
func declared(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	dir := filepath.Join("..", "..", pkg)
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	out := make(map[string]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					name = recvName(fd.Recv.List[0].Type) + "." + name
				}
				out[name] = true
			}
		}
	}
	return out
}

// recvName strips pointers and type arguments from a receiver type.
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

func matchesAny(re *regexp.Regexp, names map[string]bool) bool {
	for n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
