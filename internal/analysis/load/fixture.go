package load

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/analysis/framework"
)

// LoadFixture type-checks a GOPATH-style fixture tree: each pkgpath names
// a directory srcdir/pkgpath holding one package's files.  Fixture
// packages may import each other by those same paths and may import the
// standard library (resolved through `go list`, type-checked from source
// like the main driver).  Every named fixture package becomes a Root.
//
// This is the loader behind the analysistest harness, which hands its
// Result to Analyze: analyzer tests exercise the same type-checking
// pipeline and analysis loop the real driver uses instead of a parallel
// one that could drift.
func LoadFixture(srcdir string, pkgpaths []string) (*Result, error) {
	fx := &fixtureLoader{
		res: &Result{
			Fset:  token.NewFileSet(),
			Index: framework.NewModuleIndex(),
		},
		srcdir: srcdir,
		sizes:  types.SizesFor("gc", runtime.GOARCH),
		byPath: make(map[string]*Package),
		listed: make(map[string]bool),
	}
	for _, path := range pkgpaths {
		pkg, err := fx.load(path)
		if err != nil {
			return nil, err
		}
		if !pkg.Root {
			pkg.Root = true
			fx.res.Roots = append(fx.res.Roots, pkg)
		}
	}
	return fx.res, nil
}

type fixtureLoader struct {
	res    *Result
	srcdir string
	sizes  types.Sizes
	byPath map[string]*Package
	listed map[string]bool
}

// load resolves one import path: a fixture directory when one exists
// under srcdir, the standard library otherwise.
func (fx *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := fx.byPath[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fx.srcdir, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return fx.loadFixtureDir(path, dir)
	}
	return fx.loadStd(path)
}

// loadFixtureDir parses and type-checks one fixture package directory.
func (fx *fixtureLoader) loadFixtureDir(path, dir string) (*Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("load: fixture %s: no .go files in %s", path, dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fx.res.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: fixture %s: %w", path, err)
		}
		files = append(files, f)
	}
	// Resolve imports first so the importer below finds them ready.
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == "unsafe" {
				continue
			}
			if _, err := fx.load(p); err != nil {
				return nil, err
			}
		}
	}
	pkg, err := typecheck(fx.res, path, dir, files, fx.sizes, func(p string) (*types.Package, error) {
		if p == "unsafe" {
			return types.Unsafe, nil
		}
		if dep, ok := fx.byPath[p]; ok {
			return dep.Types, nil
		}
		return nil, fmt.Errorf("package %q not resolved for fixture %s", p, path)
	})
	if err != nil {
		return nil, err
	}
	fx.byPath[path] = pkg
	fx.res.Packages = append(fx.res.Packages, pkg)
	return pkg, nil
}

// loadStd lists one standard-library package with its dependency closure
// and type-checks whatever is not already loaded.
func (fx *fixtureLoader) loadStd(path string) (*Package, error) {
	if !fx.listed[path] {
		fx.listed[path] = true
		entries, err := goList(fx.srcdir, []string{path})
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.ImportPath == "unsafe" {
				continue
			}
			if e.Error != nil {
				return nil, fmt.Errorf("load: %s: %s", e.ImportPath, e.Error.Err)
			}
			if _, ok := fx.byPath[e.ImportPath]; ok {
				continue
			}
			pkg, err := checkOne(fx.res, fx.byPath, e, fx.sizes)
			if err != nil {
				return nil, err
			}
			fx.byPath[e.ImportPath] = pkg
			fx.res.Packages = append(fx.res.Packages, pkg)
		}
	}
	pkg, ok := fx.byPath[path]
	if !ok {
		return nil, fmt.Errorf("load: fixture import %q: not a fixture directory and not resolved by go list", path)
	}
	return pkg, nil
}
