package workcount_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/workcount"
)

func TestWorkCount(t *testing.T) {
	defer func(old string) { workcount.WorkPkg = old }(workcount.WorkPkg)
	workcount.WorkPkg = "a"
	analysistest.Run(t, filepath.Join("testdata", "src", "a"), workcount.Analyzer)
}
