package hotpath_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotpath"
)

func TestHotPath(t *testing.T) {
	analysistest.Run(t, "testdata/src", hotpath.Analyzer, "a")
}
