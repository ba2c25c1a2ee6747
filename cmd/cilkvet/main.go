// Command cilkvet checks the repository's lock-free runtime invariants.
//
// It bundles five analyzers — atomicfield, epochbump, hotpath, nocopy and
// unsafeword — documented in docs/STATIC_ANALYSIS.md, and runs them over
// whole package patterns (the `make lint` entry point):
//
//	cilkvet ./...
//	cilkvet -epochbump.funcs='^Skeleton\.LookupMiss$' ./internal/core
//
// The module and its dependencies are type-checked from source; nothing
// is executed and no build cache is needed.
//
// Exit status: 0 for a clean tree, 1 when findings are reported, 2 for
// usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
)

func main() {
	analyzers := suite.Analyzers()

	// Analyzer flags are exposed as -<analyzer>.<flag>, multichecker
	// style.
	for _, a := range analyzers {
		a.Flags.VisitAll(func(f *flag.Flag) {
			flag.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	dirFlag := flag.String("C", ".", "directory to resolve package patterns in")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cilkvet [flags] packages...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	args := flag.Args()
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
