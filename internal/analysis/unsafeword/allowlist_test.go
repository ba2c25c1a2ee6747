package unsafeword

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestDefaultAllowMatchesDeclaredFunctions fails when a DefaultAllow pattern
// matches no function declared in the module: an entry that outlives its
// function (a rename, a deletion) is an unaudited hole waiting for the next
// function to take the name.
func TestDefaultAllowMatchesDeclaredFunctions(t *testing.T) {
	const module = "repro"
	declared := map[string][]string{} // import path → importpath.[Type.]Func
	for _, pattern := range strings.Split(DefaultAllow, ",") {
		// The import path ends at the first dot after the last slash.
		slash := strings.LastIndex(pattern, "/")
		pkg := pattern[:slash+1+strings.Index(pattern[slash+1:], ".")]
		if _, ok := declared[pkg]; !ok {
			dir := filepath.Join("..", "..", "..", filepath.FromSlash(strings.TrimPrefix(pkg, module+"/")))
			pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("pattern %q: parsing %s: %v", pattern, dir, err)
			}
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
						declared[pkg] = append(declared[pkg], pkg+"."+name)
					}
				}
			}
		}
		matched := false
		for _, fn := range declared[pkg] {
			if ok, _ := path.Match(pattern, fn); ok {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("DefaultAllow pattern %q matches no function declared in %s: drop or update the entry", pattern, pkg)
		}
	}
}
