// Command cilkvet checks the repository's lock-free runtime invariants.
//
// It bundles five analyzers — atomicfield, epochbump, hotpath, nocopy and
// unsafeword — documented in docs/STATIC_ANALYSIS.md.  The command runs in
// two modes:
//
// Standalone, over whole package patterns (the `make lint` entry point):
//
//	cilkvet ./...
//	cilkvet -epochbump.funcs='^MM\.lookupMiss$' ./internal/core
//
// As a go vet tool, one compiled package at a time:
//
//	go vet -vettool=$(which cilkvet) ./...
//
// In standalone mode the module and its dependencies are type-checked
// from source; nothing is executed and no build cache is needed.  In
// vettool mode cilkvet speaks cmd/go's unitchecker protocol: it imports
// dependencies from export data and carries cross-package doc-comment
// information (//cilkvet:nocopy directives) between packages in its
// .vetx fact files.
//
// Exit status: 0 for a clean tree, 1 (standalone) or 2 (vettool) when
// findings are reported, 2 (standalone) for usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
)

func main() {
	analyzers := suite.Analyzers()

	// Analyzer flags are exposed as -<analyzer>.<flag>, multichecker
	// style, in both modes.
	for _, a := range analyzers {
		a.Flags.VisitAll(func(f *flag.Flag) {
			flag.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	versionFlag := flag.String("V", "", "print version and exit (go vet tool protocol)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (go vet tool protocol)")
	dirFlag := flag.String("C", ".", "directory to resolve package patterns in (standalone mode)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cilkvet [flags] packages...\n")
		fmt.Fprintf(flag.CommandLine.Output(), "       cilkvet config.cfg  (go vet tool protocol)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *versionFlag != "":
		printVersion(*versionFlag)
		return
	case *flagsFlag:
		printFlagsJSON()
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetUnit(args[0], analyzers))
	}
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	findings, err := load.Run(*dirFlag, args, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cilkvet: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
