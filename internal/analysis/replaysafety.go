package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ReplaySensitive lists the packages (and their subpackages) where map
// iteration order must not leak into output: the simulation core, the
// experiment harness, the measurement log, the fault engine, the
// prediction pipeline, and the statistics kernels. Everything a figure's
// bytes flow through.
var ReplaySensitive = []string{
	"anycastcdn/internal/sim",
	"anycastcdn/internal/experiments",
	"anycastcdn/internal/logs",
	"anycastcdn/internal/faults",
	"anycastcdn/internal/core",
	"anycastcdn/internal/stats",
	"anycastcdn/internal/distsim",
}

// commutativeDirective justifies an order-dependent-looking map
// iteration whose accumulation is in fact order-independent. A reason is
// mandatory, on the range statement's line or the line above:
//
//	//replay:commutative <reason>
const commutativeDirective = "//replay:commutative"

// ReplaySafety enforces byte-identical replay mechanically, two ways.
//
// In the ReplaySensitive packages it flags `range` over a map whose body
// accumulates into state declared outside the loop — appends, non-exact
// compound assignment (float/string/complex accumulation, where
// evaluation order changes the bytes), or channel sends. Iterate sorted
// keys instead, or justify with //replay:commutative. Integer
// accumulation is exact and order-independent, so it is exempt.
//
// Module-wide, it walks the cross-package fact graph: any function on
// the replay path — every function declared in a DeterministicPackages
// package, a function named in ReplayRootNames, and everything those
// reach, in whatever package — must not call time.Now or the global
// math/rand functions, and must not write to package-level maps (shared
// mutable state the parallel schedule could interleave differently
// between runs). Package-level initializers in the deterministic
// packages are held to the same rule.
var ReplaySafety = &Analyzer{
	Name: "replaysafety",
	Doc:  "forbid order-dependent map iteration in replay-sensitive packages and wall-clock, global-rand or global-map use on the replay path",
	Run:  runReplaySafety,
}

func runReplaySafety(pass *Pass) {
	commutative := collectCommutative(pass)
	restricted := pathInList(pass.Pkg.Path, ReplaySensitive)
	deterministic := pathInList(pass.Pkg.Path, DeterministicPackages)
	for _, f := range pass.Pkg.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		if restricted {
			checkMapRanges(pass, f, commutative)
		}
		checkReplayReachable(pass, f, deterministic)
	}
}

// collectCommutative gathers //replay:commutative directives per file
// line, reporting directives with no reason (the justification is the
// point of the escape hatch).
func collectCommutative(pass *Pass) map[ignoreKey]bool {
	out := map[ignoreKey]bool{}
	for _, f := range pass.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, commutativeDirective)
				if !ok {
					continue
				}
				pos := pass.Pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(rest) == "" {
					pass.report(Diagnostic{
						File:    pos.Filename,
						Line:    pos.Line,
						Col:     pos.Column,
						Check:   pass.Analyzer.Name,
						Message: "//replay:commutative needs a reason: why is this accumulation order-independent?",
					})
					continue
				}
				out[ignoreKey{file: pos.Filename, line: pos.Line}] = true
			}
		}
	}
	return out
}

// checkMapRanges flags map-range loops whose bodies accumulate
// order-dependently into outer state.
func checkMapRanges(pass *Pass, f *ast.File, commutative map[ignoreKey]bool) {
	info := pass.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		pos := pass.Pkg.Fset.Position(rng.Pos())
		if commutative[ignoreKey{file: pos.Filename, line: pos.Line}] ||
			commutative[ignoreKey{file: pos.Filename, line: pos.Line - 1}] {
			return true
		}
		reportMapRangeBody(pass, rng)
		return true
	})
}

// reportMapRangeBody reports each order-dependent accumulation inside one
// map-range body.
func reportMapRangeBody(pass *Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside map iteration delivers in random key order; iterate sorted keys or justify with %s", commutativeDirective)
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rng, n)
		}
		return true
	})
}

func checkMapRangeAssign(pass *Pass, rng *ast.RangeStmt, assign *ast.AssignStmt) {
	for i, lhs := range assign.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.Pkg.Info.ObjectOf(id)
		if obj == nil || !declaredOutside(obj, rng) {
			continue
		}
		// x = append(x, ...): element order follows key order.
		if assign.Tok == token.ASSIGN && i < len(assign.Rhs) && isAppendCall(pass.Pkg.Info, assign.Rhs[i]) {
			pass.Reportf(assign.Pos(),
				"append to %s inside map iteration records elements in random key order; iterate sorted keys or justify with %s", id.Name, commutativeDirective)
			continue
		}
		// Compound accumulation whose result depends on evaluation order:
		// float and complex addition are not associative, string append is
		// ordered. Integer ops are exact and commute.
		if assign.Tok != token.ASSIGN && assign.Tok != token.DEFINE && !exactCommutativeType(obj.Type()) {
			pass.Reportf(assign.Pos(),
				"%s accumulation into %s inside map iteration is order-dependent for %s; iterate sorted keys or justify with %s",
				assign.Tok, id.Name, obj.Type(), commutativeDirective)
		}
	}
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement (so writes to it survive the loop).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

// exactCommutativeType reports whether compound accumulation into t is
// order-independent: integer addition/multiplication and bit ops are
// exact, so any iteration order produces identical bytes.
func exactCommutativeType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// randConstructors are the math/rand names that build explicitly seeded
// generators and are therefore replay-safe.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// checkReplayReachable checks every function in f that is on the replay
// path — a replay root, or reachable from one across any package
// boundary — and, in a deterministic package, every package-level
// variable initializer.
func checkReplayReachable(pass *Pass, f *ast.File, deterministic bool) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			obj, ok := pass.Pkg.Info.Defs[d.Name].(*types.Func)
			if ok && d.Body != nil && pass.Mod.ReplayReachable(obj) {
				checkReplayBody(pass, d.Body, d.Name.Name)
			}
		case *ast.GenDecl:
			if deterministic && d.Tok == token.VAR {
				checkReplayBody(pass, d, "a package-level initializer")
			}
		}
	}
}

// checkReplayBody flags wall-clock reads, global randomness, and writes
// to package-level maps (shared mutable state the parallel schedule
// could interleave differently between runs) inside body.
func checkReplayBody(pass *Pass, body ast.Node, where string) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if pn := pass.PkgNameOf(sel); pn != nil &&
					pn.Imported().Path() == "time" && sel.Sel.Name == "Now" {
					pass.Reportf(n.Pos(),
						"time.Now() in %s, which is on the replay path, breaks replay; inject a clock (now func() time.Time)", where)
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") && len(n.Args) > 0 {
					if v := packageLevelMap(info, n.Args[0]); v != nil {
						pass.Reportf(n.Pos(),
							"%s of package-level map %s in %s, which is on the replay path; replay-sensitive state must be run-local", b.Name(), v.Name(), where)
					}
				}
			}
		case *ast.SelectorExpr:
			pn := pass.PkgNameOf(n)
			if pn == nil {
				return true
			}
			p := pn.Imported().Path()
			if p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			// Types (rand.Rand, rand.Source, …) and seeded constructors
			// are fine; package-level functions draw from the shared
			// global source and are not.
			if _, isFunc := info.Uses[n.Sel].(*types.Func); isFunc && !randConstructors[n.Sel.Name] {
				pass.Reportf(n.Pos(),
					"global %s.%s in %s, which is on the replay path, differs across runs; use an injected xrand substream", p, n.Sel.Name, where)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				if v := packageLevelMap(info, idx.X); v != nil {
					pass.Reportf(lhs.Pos(),
						"write to package-level map %s in %s, which is on the replay path; replay-sensitive state must be run-local", v.Name(), where)
				}
			}
		}
		return true
	})
}

// packageLevelMap resolves e to a package-level map variable, or nil.
func packageLevelMap(info *types.Info, e ast.Expr) *types.Var {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(x)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(x.Sel)
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if _, isMap := v.Type().Underlying().(*types.Map); !isMap {
		return nil
	}
	return v
}
