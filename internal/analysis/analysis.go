// Package analysis is the project's static-analysis substrate: a
// deliberately small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface the cqadslint suite needs.
//
// The build environment vendors nothing, so rather than importing
// x/tools this package provides the same three ideas from the standard
// library alone:
//
//   - Analyzer / Pass / Diagnostic — one named check run over one
//     type-checked package (analysis.go).
//   - A package loader — `go list -export -deps -json` enumerates the
//     packages and their compiled export data, and the stock gc
//     importer (go/importer) consumes that export data, so a whole
//     module type-checks in milliseconds per package with no source
//     re-checking of dependencies (load.go).
//   - The `//lint:cqads-ignore <analyzer> <reason>` suppression
//     directive, validated strictly: unknown analyzer names, missing
//     reasons, and directives that suppress nothing are themselves
//     findings (ignore.go).
//
// The sibling analysistest package drives analyzers over fixture
// corpora with `// want "regexp"` expectations, mirroring
// x/tools/go/analysis/analysistest closely enough that the fixtures
// would port verbatim.
//
// The analyzers themselves live in subpackages (detorder, wallclock,
// locksafe, typederr, fsyncorder, workcount) and are assembled into a vet-style
// multichecker by cmd/cqadslint.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named static check. It mirrors
// x/tools/go/analysis.Analyzer minus facts and dependencies, which the
// cqadslint suite does not need: every analyzer here is a pure
// single-package pass.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //lint:cqads-ignore directives. It must be a valid Go
	// identifier.
	Name string

	// Doc is the analyzer's documentation: first line is a summary,
	// the rest elaborates.
	Doc string

	// Run applies the check to one package. Findings are delivered
	// through pass.Report; the error return is for operational
	// failures (malformed annotation syntax, not code findings).
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic: position information rendered
// against the file set, plus the analyzer that produced it. This is
// what drivers print and what the ignore machinery filters.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Position, f.Message, f.Analyzer)
}
