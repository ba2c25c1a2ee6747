// Package load is cilkvet's whole-module driver: it resolves Go packages
// with `go list`, type-checks them from source using only the standard
// library (Load), and runs framework analyzers over the result (Analyze).
//
// The usual foundation for this layer is golang.org/x/tools/go/packages,
// which loads export data produced by the build cache.  This repository
// builds hermetically (no module proxy), so the driver instead reproduces
// the minimal slice it needs: `go list -json -deps -test` supplies the
// dependency-ordered package graph with build-tag-resolved file lists, and
// each package — standard library included — is type-checked from source
// in that order.  CGO_ENABLED=0 keeps every file list pure Go, which is
// sound because nothing is executed: the analyzers only need types.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// listPackage is the subset of `go list -json` output the driver consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Module     *struct {
		Path string
		Dir  string
	}
	Error *struct {
		Err string
	}
}

// Package is one loaded, type-checked package.
type Package struct {
	// ImportPath is the package's full `go list` identity, including any
	// " [pkg.test]" test-variant suffix.
	ImportPath string
	// Dir is the directory holding the package's sources.
	Dir string
	// Fset is the file set shared by every package of one Load.
	Fset *token.FileSet
	// Files is the parsed syntax, with comments.
	Files []*ast.File
	// Types is the type-checked package; its Path() is the clean import
	// path with any test-variant suffix stripped.
	Types *types.Package
	// TypesInfo is the type information for Files.
	TypesInfo *types.Info
	// Root marks packages the analyzers should run over (the named
	// patterns and their test variants, as opposed to dependencies).
	Root bool
}

// Result is the output of Load.
type Result struct {
	// Fset is the shared file set.
	Fset *token.FileSet
	// Packages holds every loaded package in dependency order.
	Packages []*Package
	// Roots are the packages to analyze, a subset of Packages.
	Roots []*Package
	// Index is the module-wide doc-comment index.
	Index *framework.ModuleIndex
}

// Load lists patterns in dir (the module root) and type-checks the full
// dependency closure, test variants included.
func Load(dir string, patterns []string) (*Result, error) {
	entries, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return check(entries)
}

// goList runs `go list -json -deps -test` and decodes the entry stream,
// which arrives in dependency order (dependencies before dependents).
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-e", "-json", "-deps", "-test", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("load: starting go list: %w", err)
	}
	var entries []*listPackage
	dec := json.NewDecoder(out)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		entries = append(entries, &p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	return entries, nil
}

// basePath strips the " [pkg.test]" test-variant suffix from an import
// path, yielding the path the package declares itself under.
func basePath(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// check type-checks the listed packages in order and assembles the Result.
func check(entries []*listPackage) (*Result, error) {
	res := &Result{
		Fset:  token.NewFileSet(),
		Index: framework.NewModuleIndex(),
	}
	sizes := types.SizesFor("gc", runtime.GOARCH)
	byPath := make(map[string]*Package)

	// Packages whose in-package test variant exists are analyzed through
	// that variant only, so non-test files are not reported twice.
	augmented := make(map[string]bool)
	for _, e := range entries {
		if e.ForTest != "" && basePath(e.ImportPath) == e.ForTest {
			augmented[e.ForTest] = true
		}
	}

	for _, e := range entries {
		if e.ImportPath == "unsafe" {
			continue // provided by types.Unsafe in the importer
		}
		if strings.HasSuffix(e.ImportPath, ".test") {
			continue // generated test main; its sources never exist on disk
		}
		if e.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", e.ImportPath, e.Error.Err)
		}
		pkg, err := checkOne(res, byPath, e, sizes)
		if err != nil {
			return nil, err
		}
		byPath[e.ImportPath] = pkg
		res.Packages = append(res.Packages, pkg)
		if isRoot(e) && !(e.ForTest == "" && augmented[e.ImportPath]) {
			pkg.Root = true
			res.Roots = append(res.Roots, pkg)
		}
	}
	return res, nil
}

// isRoot reports whether the entry is one the analyzers should run over: a
// named (non-dependency) package inside the module under analysis.
func isRoot(e *listPackage) bool {
	return !e.DepOnly && !e.Standard && e.Module != nil
}

// checkOne parses and type-checks a single package against the packages
// already resolved in byPath.
func checkOne(res *Result, byPath map[string]*Package, e *listPackage, sizes types.Sizes) (*Package, error) {
	if len(e.CgoFiles) > 0 {
		return nil, fmt.Errorf("load: %s lists cgo files under CGO_ENABLED=0", e.ImportPath)
	}
	files := make([]*ast.File, 0, len(e.GoFiles))
	for _, name := range e.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(e.Dir, name)
		}
		f, err := parser.ParseFile(res.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}

	pkg, err := typecheck(res, basePath(e.ImportPath), e.Dir, files, sizes, func(path string) (*types.Package, error) {
		if mapped, ok := e.ImportMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if dep, ok := byPath[path]; ok {
			return dep.Types, nil
		}
		return nil, fmt.Errorf("package %q not in dependency graph of %s", path, e.ImportPath)
	})
	if err != nil {
		return nil, err
	}
	pkg.ImportPath = e.ImportPath
	return pkg, nil
}

// typecheck runs the type checker over one parsed package and indexes its
// doc comments, failing on the first few type errors.
func typecheck(res *Result, pkgpath, dir string, files []*ast.File, sizes types.Sizes, imp func(string) (*types.Package, error)) (*Package, error) {
	var typeErrs []types.Error
	conf := types.Config{
		Sizes:    sizes,
		Importer: importerFunc(imp),
		Error: func(err error) {
			if te, ok := err.(types.Error); ok {
				typeErrs = append(typeErrs, te)
			}
		},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, _ := conf.Check(pkgpath, res.Fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, min(len(typeErrs), 5))
		for _, te := range typeErrs[:min(len(typeErrs), 5)] {
			msgs = append(msgs, fmt.Sprintf("  %s: %s", res.Fset.Position(te.Pos), te.Msg))
		}
		return nil, fmt.Errorf("load: type-checking %s:\n%s", pkgpath, strings.Join(msgs, "\n"))
	}
	res.Index.IndexFiles(pkgpath, files)
	return &Package{
		ImportPath: pkgpath,
		Dir:        dir,
		Fset:       res.Fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Run loads patterns in dir and analyzes the result: Load, then Analyze.
func Run(dir string, patterns []string, analyzers []*framework.Analyzer) ([]framework.Finding, error) {
	res, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	return Analyze(res, analyzers)
}

// Analyze applies every analyzer to every root package of res and returns
// the surviving findings sorted by position, each reported once.
// Suppression comments are honoured and malformed suppressions are
// reported under the pseudo-analyzer name "suppression".  It is the one
// analysis loop: cilkvet and the analysistest fixture harness both run it.
func Analyze(res *Result, analyzers []*framework.Analyzer) ([]framework.Finding, error) {
	var findings []framework.Finding
	seen := make(map[framework.Finding]bool)
	report := func(f framework.Finding) {
		if !seen[f] {
			seen[f] = true
			findings = append(findings, f)
		}
	}
	for _, pkg := range res.Roots {
		sup := framework.CollectSuppressions(pkg.Fset, pkg.Files)
		for _, d := range sup.Malformed {
			report(framework.Finding{Analyzer: "suppression", Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
		}
		for _, a := range analyzers {
			pass := &framework.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Module:    res.Index,
				Report: func(d framework.Diagnostic) {
					pos := pkg.Fset.Position(d.Pos)
					if sup.Allows(a.Name, pos) {
						return
					}
					report(framework.Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("load: analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
