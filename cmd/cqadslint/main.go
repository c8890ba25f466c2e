// Command cqadslint is the project's static-analysis suite: six
// analyzers that mechanically enforce the invariants the paper's
// guarantees rest on — deterministic iteration (detorder), no wall
// clock in scored paths (wallclock), annotated lock discipline
// (locksafe), typed error contracts (typederr), WAL/snapshot
// durability ordering (fsyncorder), and work counts read only by
// tests (workcount).
//
// It runs two ways:
//
//	go run ./cmd/cqadslint ./...          # standalone, whole tree
//	go vet -vettool=$(which cqadslint) ./...   # inside go vet
//
// Standalone mode loads packages itself (go list -export) and exits 1
// when findings remain. As a vettool it speaks go vet's unitchecker
// protocol: a -V=full version handshake for the build cache, then one
// invocation per package with a JSON .cfg describing sources and
// export data; diagnostics go to stderr and a nonzero exit tells vet
// the package failed.
//
// Findings are suppressed in place with
// //lint:cqads-ignore <analyzer> <reason> — see the analysis package
// for the directive rules (reasons are mandatory and stale directives
// are themselves findings).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detorder"
	"repro/internal/analysis/fsyncorder"
	"repro/internal/analysis/locksafe"
	"repro/internal/analysis/typederr"
	"repro/internal/analysis/wallclock"
	"repro/internal/analysis/workcount"
)

var suite = []*analysis.Analyzer{
	detorder.Analyzer,
	wallclock.Analyzer,
	locksafe.Analyzer,
	typederr.Analyzer,
	fsyncorder.Analyzer,
	workcount.Analyzer,
}

func main() {
	// go vet's handshake: `tool -V=full` must print "<name> version
	// <id>" where the id changes when the tool does, so the vet result
	// cache invalidates on rebuild.
	if len(os.Args) == 2 && (os.Args[1] == "-V=full" || os.Args[1] == "-V") {
		fmt.Printf("%s version devel buildID=%s\n", progName(), selfHash())
		return
	}
	// go vet also probes `tool -flags` for the analyzer flags it may
	// forward. The suite is configuration-free.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Unitchecker mode: exactly one *.cfg argument.
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(vetUnit(os.Args[1]))
	}
	os.Exit(standalone(os.Args[1:]))
}

func progName() string {
	return filepath.Base(os.Args[0])
}

// selfHash fingerprints the running executable for the vet cache key.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// --- standalone mode ---

func standalone(args []string) int {
	fs := flag.NewFlagSet("cqadslint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the suite's analyzers and exit")
	dir := fs.String("C", ".", "run as if started in this directory")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s [-C dir] [packages]\n\nAnalyzers:\n", progName())
		for _, a := range suite {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *list {
		for _, a := range suite {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := analysis.Run(*dir, patterns, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cqadslint: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "cqadslint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// --- go vet unitchecker mode ---

// vetConfig mirrors the JSON cmd/go writes for each vetted package
// (the fields this tool consumes).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func vetUnit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cqadslint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cqadslint: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	// go vet expects a facts file for every package, dependencies
	// included. The suite is fact-free, so the file is always empty —
	// written first, so even a findings exit leaves vet's cache sane.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "cqadslint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	pkg := &analysis.Package{
		Path:    cfg.ImportPath,
		Dir:     cfg.Dir,
		Sources: make(map[string][]byte),
	}
	for _, fn := range cfg.GoFiles {
		// The suite's contracts bind shipped code; test files use
		// seeded randomness and map-order-insensitive assertions on
		// purpose. The standalone loader never sees them either.
		if strings.HasSuffix(fn, "_test.go") {
			continue
		}
		src, err := os.ReadFile(fn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cqadslint: %v\n", err)
			return 1
		}
		f, err := parser.ParseFile(fset, fn, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "cqadslint: %v\n", err)
			return 1
		}
		pkg.Sources[fn] = src
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return 0
	}
	pkg.Name = pkg.Files[0].Name.Name

	imp := analysis.NewExportImporter(fset, func(path string) (string, bool) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		f, ok := cfg.PackageFile[path]
		return f, ok
	})
	pkg.Info = analysis.NewTypesInfo()
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, pkg.Files, pkg.Info)
	if err != nil && cfg.SucceedOnTypecheckFailure {
		return 0
	}
	pkg.Types = tpkg

	findings, err := analysis.RunPackage(fset, pkg, suite, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cqadslint: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f.String())
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
