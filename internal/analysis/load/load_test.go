package load

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/suite"
)

// moduleRoot walks up from the working directory to the directory holding
// go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// TestLoadModule type-checks the entire module (test variants included)
// through the source-only loader.  It is the foundation smoke test for
// cilkvet: if this fails, every analyzer result over the real tree is
// suspect.
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full stdlib closure from source")
	}
	res, err := Load(moduleRoot(t), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Roots) == 0 {
		t.Fatal("no analysis roots loaded")
	}
	var foundCore, foundSched bool
	for _, p := range res.Roots {
		if p.Types == nil || p.TypesInfo == nil {
			t.Errorf("package %s missing type information", p.ImportPath)
		}
		switch p.Types.Path() {
		case "repro/internal/core":
			foundCore = true
		case "repro/internal/sched":
			foundSched = true
		}
	}
	if !foundCore || !foundSched {
		t.Errorf("expected core and sched among roots (core=%v sched=%v)", foundCore, foundSched)
	}
	if !res.Index.NoCopy[framework.ObjKey{Pkg: "repro/internal/spa", Name: "Map"}] {
		t.Error("module index missed spa.Map's //cilkvet:nocopy directive")
	}
}

// TestRunFindingsAndSuppressions runs the whole suite over a throwaway
// module and checks the exact findings: one plain read of an atomically
// updated field is reported once (its package is analyzed through the
// in-package test variant), a justified //cilkvet:allow silences a second,
// and an allow without a justification is reported and silences nothing.
// A driver that drops findings or ignores suppressions fails it, which
// the zero-findings module test cannot notice.
func TestRunFindingsAndSuppressions(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module p\n\ngo 1.24\n",
		"p.go": `package p

import "sync/atomic"

type counter struct{ n int64 }

func (c *counter) inc() { atomic.AddInt64(&c.n, 1) }

func (c *counter) plain() int64 { return c.n }

func (c *counter) allowed() int64 {
	return c.n //cilkvet:allow atomicfield -- read before the counter is shared
}

func (c *counter) unjustified() int64 {
	return c.n //cilkvet:allow atomicfield
}
`,
		"p_test.go": `package p

func use(c *counter) int64 { c.inc(); return c.plain() + c.allowed() + c.unjustified() }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := Run(dir, []string{"./..."}, suite.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer))
	}
	want := []string{
		"p.go:9: atomicfield",
		"p.go:16: atomicfield",
		"p.go:16: suppression",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
