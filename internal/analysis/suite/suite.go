// Package suite registers the cilkvet analyzers.
//
// The list is the single source of truth shared by the cilkvet driver and
// the module smoke test, so a new analyzer added here is automatically
// wired into both.
package suite

import (
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/epochbump"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/nocopy"
	"repro/internal/analysis/unsafeword"
)

// Analyzers returns the full cilkvet suite in stable order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		atomicfield.Analyzer,
		epochbump.Analyzer,
		hotpath.Analyzer,
		nocopy.Analyzer,
		unsafeword.Analyzer,
	}
}
