// Package framework is a self-contained re-implementation of the
// golang.org/x/tools/go/analysis surface that cilkvet's analyzers are
// written against.
//
// The real x/tools module is the obvious foundation for a vet suite, but
// this repository builds in hermetic environments with no module proxy, so
// the framework is reproduced here from the standard library alone: the
// Analyzer/Pass/Diagnostic shapes mirror go/analysis closely enough that
// the analyzers can be ported onto the real framework by changing one
// import, while package load replaces go/packages and the x/tools
// drivers: it loads the module and runs the one analysis loop
// (load.Analyze) that both cmd/cilkvet and the analysistest harness use.
//
// Two deliberate deviations from go/analysis:
//
//   - Cross-package information does not travel through serialized Facts.
//     Instead every Pass carries a ModuleIndex — the //cilkvet:nocopy
//     directives harvested from the doc comments of every package the
//     driver saw — which is all the cross-package state these analyzers
//     need.
//
//   - Suppression is first-class: a diagnostic is dropped when the
//     offending line (or the line above it) carries a
//     `//cilkvet:allow <analyzer> -- <justification>` comment.  A
//     suppression without a justification is itself reported, so the
//     allowlist stays auditable.
package framework

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags and suppression
	// comments.  It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: first line summary, then the
	// invariant it enforces and why.
	Doc string

	// Flags holds analyzer-specific configuration.  cilkvet registers
	// each flag as -<name>.<flag> on its own flag set.
	Flags flag.FlagSet

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one package's worth of type-checked syntax to an analyzer,
// mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer

	// Fset maps positions for Files.
	Fset *token.FileSet

	// Files is the package's parsed syntax, comments included.
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo holds the type information for Files.
	TypesInfo *types.Info

	// Module indexes doc-comment information (//cilkvet:nocopy
	// directives) across every package the driver loaded.  Never nil.
	Module *ModuleIndex

	// Report delivers one diagnostic.  The driver installs it; analyzers
	// normally call Reportf instead.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, mirroring go/analysis.Diagnostic.
type Diagnostic struct {
	// Pos is the primary position of the finding.
	Pos token.Pos

	// Message describes the finding in one sentence.
	Message string
}

// A Finding is a positioned, attributed diagnostic as emitted by a driver:
// the analyzer that produced it plus the resolved file position.
type Finding struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string

	// Pos is the resolved source position.
	Pos token.Position

	// Message is the diagnostic text.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}
