package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath preserves the zero-allocation tick paths PR 2 bought with scratch
// buffers and monomorphic heaps — at compile time, instead of waiting for
// BenchmarkCoreTick to drift. Functions carrying a `//virec:hotpath`
// directive in their doc comment (Core.Tick, vrmu.SelectVictim, the
// cache/DRAM/delay heap operations, register-file providers) are walked
// transitively through every statically-resolvable call, and each reached
// function is checked for:
//
//   - explicit allocation: new, make, slice and map literals, and
//     address-taken composite literals (&T{...} escapes);
//   - closures (a capturing func literal allocates its environment);
//   - interface boxing: explicit conversions to interface types and
//     non-pointer concrete values passed or assigned to interface-typed
//     slots (pointers store directly into an interface; values do not);
//   - fmt calls (formatting allocates and convinces nothing else to stay
//     on the stack).
//
// The walk stops at dynamic calls (interface methods, func values) — the
// runtime benchmarks remain the cross-check for those edges — and skips:
//
//   - statements marked `//virec:alloc-ok` (intentional, amortized-per-
//     memory-op or grow-once allocations);
//   - bodies of `if hook != nil { ... }` guards where hook has func type
//     (debug/trace hooks are disabled in measured runs);
//   - arguments of panic calls (failure paths may format freely).
//
// append is deliberately not flagged: the scratch-buffer idiom
// (`in.SrcRegs(c.scratchSrc[:0])`) relies on pre-sized capacity the
// analyzer cannot prove, and the allocation benchmarks already pin it.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "checks //virec:hotpath functions transitively for allocations, closures, boxing and fmt",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) {
	dirs := newDirectives(pass.Fset, pass.Pkgs)

	// Index every function declaration in the loaded program so the walk
	// can cross package boundaries. The index is keyed by a qualified-name
	// string, not the *types.Func, because a function referenced from
	// another package resolves to its export-data object — a different
	// pointer from the object created when its own package was checked
	// from source.
	decls := make(map[string]*hotFunc)
	var roots []*hotFunc
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				hf := &hotFunc{pkg: pkg, decl: fd, obj: obj}
				decls[funcKey(obj)] = hf
				if funcHasDirective(fd, "hotpath") {
					roots = append(roots, hf)
				}
			}
		}
	}

	w := &hotWalker{pass: pass, dirs: dirs, decls: decls,
		visited: make(map[string]bool), reported: make(map[token.Pos]bool)}
	for _, root := range roots {
		w.walk(root, root.obj.Name())
	}
}

// funcKey builds a cross-package-stable identity for a function or method:
// "pkgpath.(Recv).Name".
func funcKey(f *types.Func) string {
	key := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			key = "(" + n.Obj().Name() + ")." + key
		}
	}
	if f.Pkg() != nil {
		key = f.Pkg().Path() + "." + key
	}
	return key
}

type hotFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func
}

type hotWalker struct {
	pass     *Pass
	dirs     *directives
	decls    map[string]*hotFunc
	visited  map[string]bool
	reported map[token.Pos]bool
}

// walk checks fn and recurses into statically-resolvable callees. root
// names the annotated entry point for diagnostics.
func (w *hotWalker) walk(fn *hotFunc, root string) {
	if w.visited[funcKey(fn.obj)] {
		return
	}
	w.visited[funcKey(fn.obj)] = true
	w.check(fn, root, fn.decl.Body)
}

// report deduplicates by position: a site reachable from several roots is
// one finding.
func (w *hotWalker) report(pos token.Pos, root, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Report(pos, "hot path (via %s): "+format, append([]any{root}, args...)...)
}

// check walks one function body.
func (w *hotWalker) check(fn *hotFunc, root string, body ast.Node) {
	info := fn.pkg.Info
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if stmt, ok := n.(ast.Stmt); ok && w.dirs.has(stmt.Pos(), "alloc-ok") {
			return false
		}
		switch n := n.(type) {
		case *ast.IfStmt:
			if isFuncNilGuard(info, n.Cond) {
				// Walk the condition and else branch, skip the guarded body.
				ast.Inspect(n.Cond, visit)
				if n.Else != nil {
					ast.Inspect(n.Else, visit)
				}
				return false
			}
		case *ast.CallExpr:
			if isBuiltinCall(info, n, "panic") {
				return false
			}
			w.checkCall(fn, root, n)
		case *ast.CompositeLit:
			if w.checkComposite(fn, root, n, false) {
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := n.X.(*ast.CompositeLit); ok {
					w.checkComposite(fn, root, cl, true)
					// Still walk the literal's elements for nested closures.
				}
			}
		case *ast.FuncLit:
			w.report(n.Pos(), root, "closure allocates its environment")
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) {
					w.checkBoxing(fn, root, info.TypeOf(lhs), n.Rhs[i])
				}
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// checkCall flags allocation builtins, fmt calls and boxing at call
// boundaries, then descends into the callee when its body is known.
func (w *hotWalker) checkCall(fn *hotFunc, root string, call *ast.CallExpr) {
	info := fn.pkg.Info
	switch funExpr := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := info.Uses[funExpr].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				w.report(call.Pos(), root, "new allocates")
			case "make":
				w.report(call.Pos(), root, "make allocates")
			}
			return
		}
	}

	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		w.checkBoxing(fn, root, tv.Type, call.Args[0])
		return
	}

	var callee *types.Func
	switch funExpr := call.Fun.(type) {
	case *ast.Ident:
		callee, _ = info.Uses[funExpr].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[funExpr.Sel].(*types.Func)
	}
	if callee == nil {
		return // func value or unresolvable: dynamic edge
	}
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		w.report(call.Pos(), root, "calls fmt.%s, which allocates", callee.Name())
		return
	}

	// Boxing at the call boundary: concrete non-pointer values passed to
	// interface-typed parameters.
	if sig, ok := callee.Type().(*types.Signature); ok {
		w.checkCallBoxing(fn, root, sig, call)
	}

	if target, ok := w.decls[funcKey(callee)]; ok {
		w.walk(target, root)
	}
	// Interface-method and out-of-module calls end the walk here; the
	// benchmarks own those edges.
}

// checkCallBoxing inspects each argument against its parameter type.
func (w *hotWalker) checkCallBoxing(fn *hotFunc, root string, sig *types.Signature, call *ast.CallExpr) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		w.checkBoxing(fn, root, pt, arg)
	}
}

// checkBoxing reports a concrete non-pointer value flowing into an
// interface-typed destination.
func (w *hotWalker) checkBoxing(fn *hotFunc, root string, dst types.Type, src ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	st := fn.pkg.Info.TypeOf(src)
	if st == nil || types.IsInterface(st) {
		return
	}
	switch st.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped values store directly in the interface
	case *types.Basic:
		if st.Underlying().(*types.Basic).Kind() == types.UntypedNil {
			return
		}
	}
	w.report(src.Pos(), root, "%s value boxed into interface %s", st, dst)
}

// checkComposite flags heap-bound composite literals. Returns true when
// the node was fully handled (map/slice literal reported).
func (w *hotWalker) checkComposite(fn *hotFunc, root string, cl *ast.CompositeLit, addressTaken bool) bool {
	t := fn.pkg.Info.TypeOf(cl)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map:
		w.report(cl.Pos(), root, "map literal allocates")
	case *types.Slice:
		w.report(cl.Pos(), root, "slice literal allocates")
	default:
		if addressTaken {
			w.report(cl.Pos(), root, "&%s literal escapes to the heap", t)
		}
	}
	return false
}

// isFuncNilGuard matches `x != nil` where x has func type — the debug-hook
// guard idiom (`if c.onCommit != nil { ... }`).
func isFuncNilGuard(info *types.Info, cond ast.Expr) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	var x ast.Expr
	switch {
	case isNilIdent(be.Y):
		x = be.X
	case isNilIdent(be.X):
		x = be.Y
	default:
		return false
	}
	t := info.TypeOf(x)
	if t == nil {
		return false
	}
	_, isFunc := t.Underlying().(*types.Signature)
	return isFunc
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
