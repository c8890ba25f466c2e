// Package locksafe checks the project's lock annotation convention:
//
//	type Table struct {
//		mu   sync.RWMutex
//		rows []Record // cqads:guarded-by mu
//	}
//
//	// cqads:requires-lock mu
//	func (t *Table) insertLocked(...) { ... t.rows ... }
//
// A field annotated `cqads:guarded-by <mutex>` may only be accessed
//
//   - from a function that called <base>.<mutex>.Lock() (or RLock()
//     for reads) earlier in its body,
//   - from a method whose doc comment carries
//     `// cqads:requires-lock <mutex>` (the *Locked helper
//     convention), or
//   - through a local variable declared in the same function body —
//     a freshly built, not-yet-published object (the constructor
//     pattern).
//
// Writes demand the exclusive lock: mutating a guarded field while
// holding only RLock is reported (the latent lazy-sort race PR 1
// fixed was exactly that shape). Additionally, every Lock()/RLock()
// in any function of an annotated package must have a matching
// Unlock()/RUnlock() — deferred, or called later in the body — and a
// deferred Lock() is always a bug.
//
// Read views. A type T whose method View(fn func(V)) read-locks one of
// T's mutexes hands out V, a read view of T. The methods of V read the
// fields that mutex guards through their receiver, and a function
// literal passed to T.View reads them through the receiver of the View
// call, both without locking; writes there are reported, since a view
// holds only the read lock. Code under a view — a function with a V
// receiver or parameter, or a literal passed to T.View — must call no
// method of T at all: T's methods may take the lock (locksafe does not
// follow them, least of all across packages), Go's RWMutex deadlocks a
// recursive read lock once a writer is waiting, and every read the
// view offers is a method of V.
//
// The checks are intra-procedural and position-based, not a data-flow
// analysis: they catch the overwhelmingly common shapes (forgotten
// lock, forgotten unlock, wrong lock mode) and leave exotic handoffs
// to a //lint:cqads-ignore locksafe directive with a reason.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the locksafe pass. It is annotation-driven, so it runs
// over every package and stays silent where nothing is annotated.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "checks cqads:guarded-by/cqads:requires-lock lock annotations and Lock/Unlock pairing",
	Run:  run,
}

// The annotations are line-anchored: a comment line that starts with
// the annotation binds (an optional parenthesized note or trailing
// comment is allowed); prose that merely mentions the marker
// mid-sentence does not.
var (
	guardedRE  = regexp.MustCompile(`(?m)^\s*cqads:guarded-by\s+([A-Za-z_]\w*)\s*(?:\(.*\)\s*|//.*)?$`)
	requiresRE = regexp.MustCompile(`(?m)^\s*cqads:requires-lock\s+([A-Za-z_]\w*)\s*(?:\(.*\)\s*|//.*)?$`)
)

// guards maps struct name -> guarded field name -> mutex field name.
type guards map[string]map[string]string

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	g := collectGuards(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, g, fd)
			}
		}
	}
	return nil
}

// collectGuards parses every cqads:guarded-by field annotation in the
// package, validating that the named mutex is a sibling field of
// sync.Mutex/RWMutex type.
func collectGuards(pass *analysis.Pass) guards {
	g := make(guards)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					mutex, pos, ok := fieldAnnotation(field)
					if !ok {
						continue
					}
					if !hasMutexFieldByName(pass, ts.Name.Name, mutex) {
						pass.Reportf(pos,
							"cqads:guarded-by names %q, which is not a sync.Mutex/RWMutex field of %s",
							mutex, ts.Name.Name)
						continue
					}
					m := g[ts.Name.Name]
					if m == nil {
						m = make(map[string]string)
						g[ts.Name.Name] = m
					}
					for _, name := range field.Names {
						m[name.Name] = mutex
					}
					if len(field.Names) == 0 {
						pass.Reportf(pos, "cqads:guarded-by on an embedded field is not supported; name the field")
					}
				}
			}
		}
	}
	return g
}

func fieldAnnotation(field *ast.Field) (mutex string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], cg.Pos(), true
		}
	}
	return "", token.NoPos, false
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockOp is one Lock/RLock/Unlock/RUnlock call in a function body.
type lockOp struct {
	base     string // rendered receiver chain, e.g. "t.mu" -> base "t.mu"
	name     string // Lock, RLock, Unlock, RUnlock
	pos      token.Pos
	deferred bool
}

func checkFunc(pass *analysis.Pass, g guards, fd *ast.FuncDecl) {
	recvName, recvStruct := receiver(pass, fd)
	required := requiredLocks(pass, g, fd, recvName, recvStruct)
	ops := collectLockOps(pass, fd.Body)
	checkPairing(pass, ops)
	writes := writeTargets(fd.Body)
	lits := viewLiterals(pass, fd.Body)
	checkViewCalls(pass, fd, lits)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		structName, ok := ownerStruct(pass, selection)
		if !ok {
			return true
		}
		mutex, guarded := g[structName][sel.Sel.Name]
		if !guarded {
			return true
		}
		base := types.ExprString(sel.X)
		write := writes[sel]

		// The *Locked convention: the method declares the lock held on
		// entry for its receiver.
		if recvName != "" && base == recvName && required[mutex] {
			return true
		}
		// A freshly built local object is private until published.
		if locallyDeclared(pass, sel.X, fd) {
			return true
		}
		// A read view holds the read lock, through the receiver of a
		// view method or of the View call a literal is passed to.
		if underView(pass, fd, recvName, lits, structName, mutex, base, sel.Pos()) {
			if write {
				pass.Reportf(sel.Pos(), "write to %s.%s (guarded by %q) under a read view, which holds only the read lock",
					structName, sel.Sel.Name, mutex)
			}
			return true
		}
		// Otherwise the function itself must have taken base.mutex.
		mode := lockModeBefore(ops, base+"."+mutex, sel.Pos())
		switch {
		case mode == "":
			pass.Reportf(sel.Pos(),
				"%s.%s is guarded by %q but accessed without holding it (lock %s.%s, or annotate the method cqads:requires-lock %s)",
				structName, sel.Sel.Name, mutex, base, mutex, mutex)
		case write && mode == "RLock":
			pass.Reportf(sel.Pos(),
				"write to %s.%s (guarded by %q) while holding only %s.%s.RLock; writes need the exclusive Lock",
				structName, sel.Sel.Name, mutex, base, mutex)
		}
		return true
	})
}

// receiver returns the method receiver's name and its (pointer-
// stripped) struct type name, or empty strings for plain functions.
func receiver(pass *analysis.Pass, fd *ast.FuncDecl) (name, structName string) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", ""
	}
	r := fd.Recv.List[0]
	if len(r.Names) > 0 {
		name = r.Names[0].Name
	}
	t := r.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers (IndexExpr) are unwrapped to the base name.
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		structName = id.Name
	}
	return name, structName
}

// requiredLocks parses the function's cqads:requires-lock annotations,
// validating that the function is a method of a struct that actually
// has such a mutex.
func requiredLocks(pass *analysis.Pass, g guards, fd *ast.FuncDecl, recvName, recvStruct string) map[string]bool {
	req := make(map[string]bool)
	if fd.Doc == nil {
		return req
	}
	for _, m := range requiresRE.FindAllStringSubmatch(fd.Doc.Text(), -1) {
		mutex := m[1]
		if recvStruct == "" {
			pass.Reportf(fd.Pos(), "cqads:requires-lock on a function that is not a method; annotate methods only")
			continue
		}
		if !hasMutexFieldByName(pass, recvStruct, mutex) {
			pass.Reportf(fd.Pos(),
				"cqads:requires-lock names %q, which is not a sync.Mutex/RWMutex field of %s",
				mutex, recvStruct)
			continue
		}
		req[mutex] = true
	}
	return req
}

func hasMutexFieldByName(pass *analysis.Pass, structName, mutex string) bool {
	obj := pass.Pkg.Scope().Lookup(structName)
	if obj == nil {
		return false
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == mutex {
			return isMutexType(f.Type())
		}
	}
	return false
}

// ownerStruct resolves the struct type a field selection reads from,
// stripping pointers; ok is false for structs outside this package.
func ownerStruct(pass *analysis.Pass, selection *types.Selection) (string, bool) {
	t := selection.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	if named.Obj().Pkg() != pass.Pkg {
		return "", false
	}
	return named.Obj().Name(), true
}

// collectLockOps gathers every sync.Mutex/RWMutex Lock/RLock/Unlock/
// RUnlock call in body, noting deferred ones.
func collectLockOps(pass *analysis.Pass, body *ast.BlockStmt) []lockOp {
	var ops []lockOp
	record := func(call *ast.CallExpr, deferred bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.MethodVal {
			return
		}
		fn, ok := selection.Obj().(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return
		}
		switch fn.Name() {
		case "Lock", "RLock", "Unlock", "RUnlock":
			ops = append(ops, lockOp{
				base:     types.ExprString(sel.X),
				name:     fn.Name(),
				pos:      call.Pos(),
				deferred: deferred,
			})
		}
	}
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
			record(n.Call, true)
			// Still descend: the deferred call's arguments may contain
			// more calls.
		case *ast.CallExpr:
			if !deferred[n] {
				record(n, false)
			}
		}
		return true
	})
	return ops
}

// checkPairing enforces: no deferred Lock/RLock, and every Lock/RLock
// has a matching Unlock/RUnlock on the same rendered receiver — either
// deferred (anywhere) or called later in the body.
func checkPairing(pass *analysis.Pass, ops []lockOp) {
	for _, op := range ops {
		switch op.name {
		case "Lock", "RLock":
			if op.deferred {
				pass.Reportf(op.pos, "deferred %s.%s(): locking on the way out is almost certainly meant to be the matching unlock", op.base, op.name)
				continue
			}
			want := "Unlock"
			if op.name == "RLock" {
				want = "RUnlock"
			}
			if !hasMatchingUnlock(ops, op, want) {
				pass.Reportf(op.pos, "%s.%s() with no matching %s in this function (defer %s.%s() or call it on every path)",
					op.base, op.name, want, op.base, want)
			}
		}
	}
}

func hasMatchingUnlock(ops []lockOp, lock lockOp, want string) bool {
	for _, op := range ops {
		if op.base != lock.base || op.name != want {
			continue
		}
		if op.deferred || op.pos > lock.pos {
			return true
		}
	}
	return false
}

// lockModeBefore reports the strongest lock taken on the rendered
// mutex chain before pos: "Lock", "RLock", or "" when never locked
// earlier in the function.
func lockModeBefore(ops []lockOp, mutexChain string, pos token.Pos) string {
	mode := ""
	for _, op := range ops {
		if op.base != mutexChain || op.deferred || op.pos >= pos {
			continue
		}
		switch op.name {
		case "Lock":
			return "Lock"
		case "RLock":
			mode = "RLock"
		}
	}
	return mode
}

// locallyDeclared reports whether the access base resolves to a
// variable declared inside this function's body (not a parameter or
// receiver) — a freshly constructed object that nothing else can see
// yet.
func locallyDeclared(pass *analysis.Pass, base ast.Expr, fd *ast.FuncDecl) bool {
	for {
		switch x := base.(type) {
		case *ast.ParenExpr:
			base = x.X
		case *ast.StarExpr:
			base = x.X
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			if obj == nil {
				return false
			}
			return obj.Pos() >= fd.Body.Pos() && obj.Pos() <= fd.Body.End()
		default:
			return false
		}
	}
}

// writeTargets marks every expression that is mutated: assignment
// left-hand sides (unwrapped through index/star/paren so `t.rows[i] =`
// marks `t.rows`), ++/--, and address-taken operands.
func writeTargets(body *ast.BlockStmt) map[ast.Expr]bool {
	writes := make(map[ast.Expr]bool)
	mark := func(e ast.Expr) {
		for {
			writes[e] = true
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		}
		return true
	})
	return writes
}

// viewed returns T when t (or *t) is V, a read view of T: a struct
// whose first field points to T, where *T has a method View(func(V)).
// Fields after the first carry per-view state, such as a counter.
// Otherwise it returns nil.
func viewed(t types.Type) *types.Named {
	v := namedOf(t)
	if v == nil {
		return nil
	}
	st, ok := v.Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 || namedOf(st.Field(0).Type()) == nil {
		return nil
	}
	target := namedOf(st.Field(0).Type())
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(target), false, target.Obj().Pkg(), "View")
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Params().Len() == 1 {
		cb, ok := fn.Type().(*types.Signature).Params().At(0).Type().(*types.Signature)
		if ok && cb.Params().Len() == 1 && types.Identical(cb.Params().At(0).Type(), v) {
			return target
		}
	}
	return nil
}

// viewLiteral is a function literal passed to T.View: it runs under
// the read lock of the T that base renders.
type viewLiteral struct {
	lit  *ast.FuncLit
	base string
	t    *types.Named
}

func viewLiterals(pass *analysis.Pass, body *ast.BlockStmt) []viewLiteral {
	var out []viewLiteral
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 1 {
			sel, isSel := call.Fun.(*ast.SelectorExpr)
			lit, isLit := call.Args[0].(*ast.FuncLit)
			if isSel && isLit && sel.Sel.Name == "View" && lit.Type.Params.NumFields() == 1 {
				t := viewed(pass.TypesInfo.TypeOf(lit.Type.Params.List[0].Type))
				if t != nil && t == namedOf(pass.TypesInfo.TypeOf(sel.X)) {
					out = append(out, viewLiteral{lit, types.ExprString(sel.X), t})
				}
			}
		}
		return true
	})
	return out
}

// underView reports whether reading structName's field guarded by
// mutex through base at pos happens under a read view holding mutex:
// in a method of the view, through its receiver, or in a literal passed
// to View, through the View call's receiver.
func underView(pass *analysis.Pass, fd *ast.FuncDecl, recvName string, lits []viewLiteral, structName, mutex, base string, pos token.Pos) bool {
	holds := func(t *types.Named) bool {
		return t != nil && t.Obj().Name() == structName && viewMutex(pass, t) == mutex
	}
	if fd.Recv != nil && recvName != "" && strings.HasPrefix(base, recvName+".") &&
		holds(viewed(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type))) {
		return true
	}
	for _, l := range lits {
		if base == l.base && l.lit.Pos() <= pos && pos < l.lit.End() && holds(l.t) {
			return true
		}
	}
	return false
}

// viewMutex returns the mutex t's View method read-locks.
func viewMutex(pass *analysis.Pass, t *types.Named) string {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Recv != nil && fd.Name.Name == "View" && namedOf(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)) == t {
				recv, _ := receiver(pass, fd)
				for _, op := range collectLockOps(pass, fd.Body) {
					if mu, ok := strings.CutPrefix(op.base, recv+"."); ok && op.name == "RLock" {
						return mu
					}
				}
			}
		}
	}
	return ""
}

// checkViewCalls reports every call to a method of a viewed type T made
// under a view of T: in fd when it has a view receiver or parameter,
// and in each literal passed to T.View.
func checkViewCalls(pass *analysis.Pass, fd *ast.FuncDecl, lits []viewLiteral) {
	var fields []*ast.Field
	if fd.Recv != nil {
		fields = fd.Recv.List
	}
	under := map[*types.Named]bool{}
	for _, f := range append(fields, fd.Type.Params.List...) {
		if t := viewed(pass.TypesInfo.TypeOf(f.Type)); t != nil {
			under[t] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || pass.TypesInfo.Selections[sel] == nil || pass.TypesInfo.Selections[sel].Kind() != types.MethodVal {
			return true
		}
		t := namedOf(pass.TypesInfo.Selections[sel].Recv())
		in := under[t]
		for _, l := range lits {
			in = in || l.t == t && l.lit.Pos() <= call.Pos() && call.Pos() < l.lit.End()
		}
		if in {
			pass.Reportf(call.Pos(), "%s.%s called under a read view of %s: a method of %s may take the lock the view holds, and a recursive read lock deadlocks once a writer waits; read through the view",
				t.Obj().Name(), sel.Sel.Name, t.Obj().Name(), t.Obj().Name())
		}
		return true
	})
}

// namedOf strips one pointer and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
