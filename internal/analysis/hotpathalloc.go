package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc enforces the //perf:hotpath contract: an annotated
// function is in the per-sample tier the bench gate pins at 0 allocs/op,
// so its body must contain no allocation-forcing constructs —
//
//   - func literals capturing outer variables (the closure and its
//     captures escape together),
//   - string concatenation and fmt calls,
//   - interface conversions of concrete values (explicit conversions,
//     assignments to interface-typed variables, concrete returns behind
//     interface results),
//   - variadic calls with a non-empty argument list (each call builds the
//     backing slice; pass ...slice or use a fixed-arity variant),
//   - append inside a loop to a slice the function did not pre-size with
//     make,
//   - map literals.
//
// The annotation is a cross-package fact (Module.HotPath), so a method
// annotated in one package is enforced wherever its declaration lives.
// Genuine one-time costs inside an annotated function carry a
// //lint:ignore hotpathalloc justification.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocation-forcing constructs in //perf:hotpath functions",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !pass.Mod.HotPath(obj) {
				continue
			}
			checkHotPath(pass, fd, obj)
		}
	}
}

func checkHotPath(pass *Pass, fd *ast.FuncDecl, fn *types.Func) {
	info := pass.Pkg.Info
	loops := loopRanges(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			for _, v := range capturedVars(info, fd, n) {
				pass.Reportf(n.Pos(),
					"closure in hot path %s captures %s by reference and allocates; hoist the work or pass state explicitly", fd.Name.Name, v.Name())
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				pass.Reportf(n.Pos(),
					"string concatenation in hot path %s allocates; pre-build the string or use a byte buffer owned by the caller", fd.Name.Name)
			}
		case *ast.AssignStmt:
			checkHotPathAssign(pass, fd, n)
		case *ast.ReturnStmt:
			checkHotPathReturn(pass, fd, fn, n)
		case *ast.CallExpr:
			checkHotPathCall(pass, fd, n, loops)
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"map literal in hot path %s allocates; hoist the map to setup code", fd.Name.Name)
				}
			}
		}
		return true
	})
}

func checkHotPathAssign(pass *Pass, fd *ast.FuncDecl, assign *ast.AssignStmt) {
	info := pass.Pkg.Info
	if assign.Tok == token.ADD_ASSIGN && len(assign.Lhs) == 1 && isStringType(info.TypeOf(assign.Lhs[0])) {
		pass.Reportf(assign.Pos(),
			"string concatenation in hot path %s allocates; pre-build the string or use a byte buffer owned by the caller", fd.Name.Name)
		return
	}
	if assign.Tok != token.ASSIGN || len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, lhs := range assign.Lhs {
		if boxesIntoInterface(info, info.TypeOf(lhs), assign.Rhs[i]) {
			pass.Reportf(assign.Pos(),
				"assignment boxes a concrete %s into interface %s in hot path %s; keep the concrete type", info.TypeOf(assign.Rhs[i]), info.TypeOf(lhs), fd.Name.Name)
		}
	}
}

func checkHotPathReturn(pass *Pass, fd *ast.FuncDecl, fn *types.Func, ret *ast.ReturnStmt) {
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		if boxesIntoInterface(pass.Pkg.Info, sig.Results().At(i).Type(), res) {
			pass.Reportf(res.Pos(),
				"return boxes a concrete %s into interface result %s in hot path %s", pass.Pkg.Info.TypeOf(res), sig.Results().At(i).Type(), fd.Name.Name)
		}
	}
}

func checkHotPathCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, loops []posRange) {
	info := pass.Pkg.Info
	// Explicit conversion to an interface type.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 && isInterfaceType(tv.Type) && !isInterfaceType(info.TypeOf(call.Args[0])) && !isUntypedNil(info, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"conversion boxes a concrete %s into interface %s in hot path %s", info.TypeOf(call.Args[0]), tv.Type, fd.Name.Name)
		}
		return
	}
	// fmt.* anywhere in a hot path allocates (boxing plus formatting state).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pn := pass.PkgNameOf(sel); pn != nil && pn.Imported().Path() == "fmt" {
			pass.Reportf(call.Pos(),
				"fmt.%s in hot path %s allocates; format outside the hot path", sel.Sel.Name, fd.Name.Name)
			return
		}
	}
	// append in a loop to a slice this function did not pre-size.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && inAnyRange(call.Pos(), loops) {
				checkLoopAppend(pass, fd, call)
			}
			return
		}
	}
	// Variadic call with a non-empty variadic slot: the call site builds
	// the backing slice every time. Passing an existing slice (xs...) is
	// allocation-free and allowed.
	if callee := calleeFunc(info, call); callee != nil {
		sig, ok := callee.Type().(*types.Signature)
		if ok && sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
			pass.Reportf(call.Pos(),
				"variadic call %s(...) with %d variadic argument(s) in hot path %s allocates the argument slice; use a fixed-arity variant (like xrand.DeriveSeedL1..L4) or pass an existing slice", callee.Name(), len(call.Args)-sig.Params().Len()+1, fd.Name.Name)
		}
	}
}

// checkLoopAppend flags append-in-loop when the destination slice is a
// local the function visibly failed to pre-size. Slices that arrive as
// parameters or outer state are the caller's responsibility.
func checkLoopAppend(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := pass.Pkg.Info.ObjectOf(id).(*types.Var)
	if !ok || obj.Pos() < fd.Pos() || obj.Pos() >= fd.End() {
		return
	}
	init, found := localInit(pass.Pkg.Info, fd, obj)
	if !found {
		return // a parameter: pre-sizing is the caller's contract
	}
	if presizedMake(pass.Pkg.Info, init) {
		return
	}
	pass.Reportf(call.Pos(),
		"append to %s in a loop in hot path %s without pre-sizing; allocate with make(len/cap) before the loop", id.Name, fd.Name.Name)
}

// localInit finds the initializer expression of obj's declaration inside
// fd (from := or var = forms); found is false for parameters and
// receivers, and init is nil for `var x []T` with no initializer.
func localInit(info *types.Info, fd *ast.FuncDecl, obj *types.Var) (init ast.Expr, found bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if ok && info.Defs[id] == obj {
					found = true
					if len(n.Rhs) == len(n.Lhs) {
						init = n.Rhs[i]
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if info.Defs[name] == obj {
					found = true
					if i < len(n.Values) {
						init = n.Values[i]
					}
				}
			}
		}
		return true
	})
	return init, found
}

// presizedMake reports whether init is make([]T, n) or make([]T, n, c)
// with a nonzero size: the append loop then grows into reserved space.
func presizedMake(info *types.Info, init ast.Expr) bool {
	call, ok := ast.Unparen(init).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if len(call.Args) >= 3 {
		return true // explicit capacity
	}
	if len(call.Args) == 2 {
		// make([]T, n): pre-sized unless n is literally zero.
		if lit, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit); ok && lit.Value == "0" {
			return false
		}
		return true
	}
	return false
}

// capturedVars returns the distinct variables a func literal captures
// from its enclosing function (idents resolving to variables declared
// inside fd but outside lit, excluding fields and package-level state).
func capturedVars(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture
		}
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}

// posRange is a half-open position interval.
type posRange struct{ lo, hi token.Pos }

func inAnyRange(p token.Pos, rs []posRange) bool {
	for _, r := range rs {
		if p >= r.lo && p < r.hi {
			return true
		}
	}
	return false
}

// loopRanges collects the extents of every for/range statement in body.
func loopRanges(body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			out = append(out, posRange{n.Pos(), n.End()})
		}
		return true
	})
	return out
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInterfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// boxesIntoInterface reports whether assigning rhs to a destination of
// type dst converts a concrete value to an interface.
func boxesIntoInterface(info *types.Info, dst types.Type, rhs ast.Expr) bool {
	if !isInterfaceType(dst) {
		return false
	}
	rt := info.TypeOf(rhs)
	if rt == nil || isInterfaceType(rt) || isUntypedNil(info, rhs) {
		return false
	}
	return true
}
