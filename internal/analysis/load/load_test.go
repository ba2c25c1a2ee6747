package load

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis/framework"
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
