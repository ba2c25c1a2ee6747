// The go vet tool protocol: cmd/go probes the tool with -V=full and
// -flags, then invokes it once per compiled package with a JSON .cfg file
// describing sources, the import map and fact-file locations.  This file
// is a self-contained reimplementation of the slice of
// golang.org/x/tools/go/analysis/unitchecker the suite needs, with the
// module doc-comment index (//cilkvet:nocopy) serialized through the
// .vetx fact files.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/analysis/framework"
)

// printVersion answers the -V probe.  cmd/go demands the form
// "name version ..." and uses the full line as the tool's build ID, so
// the executable's content hash keeps vet results correctly cached.
func printVersion(mode string) {
	progname := filepath.Base(os.Args[0])
	if mode != "full" {
		fmt.Printf("%s version devel\n", progname)
		return
	}
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		_, _ = io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel buildID=%x\n", progname, h.Sum(nil)[:16])
}

// printFlagsJSON answers the -flags probe: the set of flags cmd/go may
// forward from the go vet command line.
func printFlagsJSON() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		out = append(out, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cilkvet: -flags: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// vetConfig is the subset of cmd/go's vet configuration file the tool
// consumes.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetxPayload is what cilkvet stores in its .vetx fact files: the
// doc-comment index for the package and everything it imports, so
// indirect dependencies' directives survive even when cmd/go only
// hands us direct imports' fact files.
type vetxPayload struct {
	NoCopy []objFact
}

type objFact struct {
	Pkg, Name string
}

// vetUnit checks one compiled package per the protocol and returns the
// process exit code: 0 clean, 2 findings (the exit code cmd/vet uses).
func vetUnit(cfgPath string, analyzers []*framework.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cilkvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cilkvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// Merge the fact files of every dependency cmd/go handed us.
	index := framework.NewModuleIndex()
	for _, vetx := range cfg.PackageVetx {
		if err := readVetx(vetx, index); err != nil {
			fmt.Fprintf(os.Stderr, "cilkvet: %v\n", err)
			return 1
		}
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(cfg.VetxOutput, index)
			}
			fmt.Fprintf(os.Stderr, "cilkvet: %v\n", err)
			return 1
		}
		files = append(files, f)
	}
	pkgPath := cfg.ImportPath
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	index.IndexFiles(pkgPath, files)

	if cfg.VetxOnly {
		// Dependency run: cmd/go only wants the facts.
		return writeVetx(cfg.VetxOutput, index)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	gcImporter := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Sizes: types.SizesFor(compiler, envOr("GOARCH", runtime.GOARCH)),
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := cfg.ImportMap[path]; ok {
				path = mapped
			}
			if path == "unsafe" {
				return types.Unsafe, nil
			}
			return gcImporter.Import(path)
		}),
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
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(cfg.VetxOutput, index)
		}
		fmt.Fprintf(os.Stderr, "cilkvet: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	exit := 0
	sup := framework.CollectSuppressions(fset, files)
	for _, d := range sup.Malformed {
		fmt.Fprintf(os.Stderr, "%s: suppression: %s\n", fset.Position(d.Pos), d.Message)
		exit = 2
	}
	for _, a := range analyzers {
		pass := &framework.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       tpkg,
			TypesInfo: info,
			Module:    index,
			Report: func(d framework.Diagnostic) {
				pos := fset.Position(d.Pos)
				if sup.Allows(a.Name, pos) {
					return
				}
				fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pos, a.Name, d.Message)
				exit = 2
			},
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "cilkvet: analyzer %s on %s: %v\n", a.Name, cfg.ImportPath, err)
			return 1
		}
	}
	if code := writeVetx(cfg.VetxOutput, index); code != 0 {
		return code
	}
	return exit
}

// readVetx merges one fact file into the index.  A missing or empty file
// is fine: it was written by a run that had nothing to record, or by a
// different tool chained into the same vet invocation.
func readVetx(path string, index *framework.ModuleIndex) error {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return nil
	}
	var payload vetxPayload
	if err := json.Unmarshal(data, &payload); err != nil {
		return nil // not ours; ignore
	}
	for _, n := range payload.NoCopy {
		index.NoCopy[framework.ObjKey{Pkg: n.Pkg, Name: n.Name}] = true
	}
	return nil
}

// writeVetx persists the accumulated index for dependents.
func writeVetx(path string, index *framework.ModuleIndex) int {
	if path == "" {
		return 0
	}
	var payload vetxPayload
	for k := range index.NoCopy {
		payload.NoCopy = append(payload.NoCopy, objFact{k.Pkg, k.Name})
	}
	data, err := json.Marshal(payload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cilkvet: encoding facts: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "cilkvet: %v\n", err)
		return 1
	}
	return 0
}

// envOr reads an environment variable with a fallback.
func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
