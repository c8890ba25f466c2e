package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testSupport are the packages that exist only for tests: their
// functions are not production code and their references do not
// count as production callers.
var testSupport = []string{
	"internal/sql/sqltest",
	"internal/shard/shardtest",
	"internal/sqldb/sqldbtest",
	"internal/analysis/analysistest",
}

// interfaceMethods satisfy an interface the standard library or the
// runtime calls through, so no identifier in the tree names them.
var interfaceMethods = map[string]string{
	"String":    "fmt.Stringer",
	"GoString":  "fmt.GoStringer",
	"Error":     "error",
	"Unwrap":    "errors.Unwrap",
	"Is":        "errors.Is",
	"ServeHTTP": "http.Handler",
	"Len":       "sort.Interface / heap.Interface",
	"Less":      "sort.Interface / heap.Interface",
	"Swap":      "sort.Interface / heap.Interface",
	"Push":      "heap.Interface",
	"Pop":       "heap.Interface",
}

// testHooks are functions kept in production files on purpose although
// only tests call them, each with the reason.
var testHooks = map[string]string{
	"internal/sql.Exec":                   "one-call compile-and-run convenience shared by tests across packages",
	"internal/persist.Store.Syncs":        "test hook: counts fsyncs so group-commit tests can assert batching",
	"internal/core.groupCommitter.queued": "test hook: lets group-commit tests wait for a queued batch",
}

// fn is one function or method declaration and the identifiers it
// names.
type fn struct {
	key     string // "pkgdir.Recv.Name" or "pkgdir.Name"
	name    string
	pos     string
	method  bool
	checked bool     // declared where this test requires a production caller
	uses    []string // identifiers in its receiver, signature and body
}

// TestEveryFunctionHasAProductionCaller: production code is what
// production calls. Every function and method declared in a non-test
// file of the module, outside cmd/, examples/, bench/, testdata and the
// test-support packages, must be reachable from a production root: a
// function in cmd/, examples/ or bench/, a main or init, a package-level
// declaration, an interface method the standard library calls, or a
// listed test hook. A function is reached when a reached function (or a
// root) names it. The match is by name, not by type, so a dead function
// that shares its name with a live one is missed; a live one is never
// flagged. staticcheck's U1000 counts a test use as a use, which is how
// test-only helpers survive it.
func TestEveryFunctionHasAProductionCaller(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var fns []*fn
	live := map[string]bool{} // names a reached function or a root uses
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(mustRel(root, path))
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || slices.Contains(testSupport, rel)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		top := strings.SplitN(rel, "/", 2)[0]
		declares := top != "cmd" && top != "examples" && top != "bench"
		pkg := filepath.ToSlash(filepath.Dir(rel))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				addIdents(decl, live)
				continue
			}
			g := &fn{key: pkg + "." + fd.Name.Name, name: fd.Name.Name, method: fd.Recv != nil,
				pos: mustRel(root, fset.Position(fd.Pos()).String())}
			g.checked = declares && g.name != "main" && g.name != "init"
			if g.method {
				g.key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + g.name
			}
			uses := map[string]bool{}
			addIdents(fd, uses)
			delete(uses, g.name)
			for name := range uses {
				g.uses = append(g.uses, name)
			}
			fns = append(fns, g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d non-test files under %s; is the module root right?", files, root)
	}

	reached := map[*fn]bool{}
	reach := func(g *fn) {
		reached[g] = true
		for _, name := range g.uses {
			live[name] = true
		}
	}
	for _, g := range fns {
		_, hook := testHooks[g.key]
		if !g.checked || hook || g.method && interfaceMethods[g.name] != "" {
			reach(g)
		}
	}
	for grew := true; grew; {
		grew = false
		for _, g := range fns {
			if !reached[g] && live[g.name] {
				reach(g)
				grew = true
			}
		}
	}
	for _, g := range fns {
		if !reached[g] {
			t.Errorf("%s: %s has no caller outside tests; delete it or move it beside its tests", g.pos, g.key)
		}
	}
	for key := range testHooks {
		if !slices.ContainsFunc(fns, func(g *fn) bool { return g.key == key }) {
			t.Errorf("testHooks lists %s, which no longer exists; drop the entry", key)
		}
	}
}

// addIdents adds every identifier under n to names.
func addIdents(n ast.Node, names map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			names[id.Name] = true
		}
		return true
	})
}

// recvName is the base type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

func mustRel(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		panic(err)
	}
	return rel
}
