// Package workcount keeps the work counts (internal/work) off the
// answer path: the counts measure how much work an ask did, and an
// answer that depended on them would change with every optimisation.
// Only tests may read them, so a call of the sink's reader outside a
// _test.go file is reported.
package workcount

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// WorkPkg is the import path of the package declaring the sink. Tests
// point it at their fixture.
var WorkPkg = "repro/internal/work"

// Analyzer is the workcount pass.
var Analyzer = &analysis.Analyzer{
	Name: "workcount",
	Doc:  "reports reads of the work counts (work.Sink.Read) outside tests",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	reader := "(*" + WorkPkg + ".Sink).Read"
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.FullName() == reader {
				pass.Reportf(sel.Pos(), "work counts read outside a test: no answer may depend on how much work computing it took")
			}
			return true
		})
	}
	return nil
}
