package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ErrFlow is the flow-sensitive error tracker. Where uncheckederr is
// syntactic (an error-returning call whose result is dropped on the
// floor), errflow follows error values along CFG paths and reports the
// bugs that only show up as path properties:
//
//   - overwrite before check: an assignment to an error variable whose
//     previous error, on every path reaching the assignment, was never
//     read — the first failure is silently lost.
//   - shadowed check: a nil check that reads an outer `err` while a
//     different, shadowing variable of the same name was assigned on
//     this path and never checked — the check looks right and tests
//     the wrong value.
//   - use on the error path: dereferencing, indexing, or calling a
//     result on a path where the error it was returned with is known
//     non-nil (refined from the branch condition) — the canonical
//     `resp, err := ...; if err != nil { resp.Body.Close() }` nil
//     dereference.
//
// The forward pass is a may-analysis: "checked" joins with OR (a nil
// check on either branch counts), "known non-nil" joins with AND (only
// if established on every incoming path), so each finding holds on all
// (respectively some) executions and the false-positive rate stays
// lint-worthy. Error variables captured by closures or having their
// address taken are excluded — their reads happen off-path.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "flow-sensitive error tracking: overwritten-before-checked, shadowed checks, results used on the error path",
	Run:  runErrFlow,
}

func runErrFlow(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeErrBody(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					analyzeErrBody(pass, lit.Body)
				}
				return true
			})
		}
	}
}

// errFact is what the analysis knows about one error variable on the
// current path.
type errFact struct {
	assignPos token.Pos // site of the pending assignment
	assigned  bool      // an error value is pending
	checked   bool      // nil-compared since assignment
	nonNil    bool      // branch refinement proved it non-nil here
}

// resultFact pairs a result variable with the error variable returned
// alongside it, so a use of the result can be tied to the error path.
type resultFact struct {
	errVar *types.Var
	pos    token.Pos
}

// errState is the lattice element: facts per tracked error variable
// plus live result→error pairings. A nil *errState is bottom (path not
// reached). Values are copy-on-write.
type errState struct {
	errs map[*types.Var]errFact
	res  map[*types.Var]resultFact
}

func (s *errState) clone() *errState {
	out := &errState{
		errs: make(map[*types.Var]errFact, len(s.errs)),
		res:  make(map[*types.Var]resultFact, len(s.res)),
	}
	for k, v := range s.errs {
		out.errs[k] = v
	}
	for k, v := range s.res {
		out.res[k] = v
	}
	return out
}

func joinErr(a, b *errState) *errState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	for v, fb := range b.errs {
		fa, ok := out.errs[v]
		if !ok {
			out.errs[v] = fb
			continue
		}
		m := errFact{
			assigned: fa.assigned || fb.assigned,
			checked:  fa.checked || fb.checked,
			nonNil:   fa.nonNil && fb.nonNil,
		}
		m.assignPos = fa.assignPos
		if fb.assignPos != token.NoPos && (m.assignPos == token.NoPos || fb.assignPos < m.assignPos) {
			m.assignPos = fb.assignPos
		}
		out.errs[v] = m
	}
	for v, rb := range b.res {
		if _, ok := out.res[v]; !ok {
			out.res[v] = rb
		}
	}
	return out
}

func equalErr(a, b *errState) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.errs) != len(b.errs) || len(a.res) != len(b.res) {
		return false
	}
	for k, v := range a.errs {
		if b.errs[k] != v {
			return false
		}
	}
	for k, v := range a.res {
		if b.res[k] != v {
			return false
		}
	}
	return true
}

// errFlowUnit carries the per-body context shared by the transfer
// function and the reporting refold.
type errFlowUnit struct {
	pass     *Pass
	excluded map[*types.Var]bool
	bodyPos  token.Pos
	report   bool
}

func analyzeErrBody(pass *Pass, body *ast.BlockStmt) {
	u := &errFlowUnit{pass: pass, excluded: escapedErrVars(pass.Pkg.Info, body), bodyPos: body.Pos()}
	g := NewCFG(body)
	an := FlowAnalysis[*errState]{
		Boundary:     &errState{errs: map[*types.Var]errFact{}, res: map[*types.Var]resultFact{}},
		Bottom:       func() *errState { return nil },
		Join:         joinErr,
		Equal:        equalErr,
		Transfer:     func(n ast.Node, s *errState) *errState { return u.apply(n, s) },
		EdgeTransfer: u.refine,
	}
	res := Solve(g, an)
	u.report = true
	for _, blk := range g.Blocks {
		s := res.In[blk.Index]
		for _, n := range blk.Nodes {
			s = u.apply(n, s)
		}
	}
	u.report = false
	u.deadErrorStores(g)
}

// liveFact is one backward-liveness fact: whether some path from here
// reads the variable before rewriting it, and — when none does — the
// earliest overwrite that kills it (NoPos if the function just
// returns).
type liveFact struct {
	live    bool
	killPos token.Pos
}

type liveState map[*types.Var]liveFact

func joinLive(a, b liveState) liveState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(liveState, len(a)+len(b))
	for v, f := range a {
		out[v] = f
	}
	for v, fb := range b {
		fa := out[v]
		m := liveFact{live: fa.live || fb.live, killPos: fa.killPos}
		if fb.killPos != token.NoPos && (m.killPos == token.NoPos || fb.killPos < m.killPos) {
			m.killPos = fb.killPos
		}
		out[v] = m
	}
	return out
}

func equalLive(a, b liveState) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if len(a) != len(b) {
		return false
	}
	for v, f := range a {
		if b[v] != f {
			return false
		}
	}
	return true
}

// deadErrorStores runs backward liveness over the tracked error
// variables and reports assignments whose error no path ever reads:
// the value is overwritten or the function returns before any check.
// Anchoring at the earlier assignment (not the overwrite) is what
// keeps the idiomatic retry loop clean — `lastErr = err` is live
// through the loop-exit path even though the back edge rewrites it.
func (u *errFlowUnit) deadErrorStores(g *CFG) {
	an := FlowAnalysis[liveState]{
		Backward: true,
		Boundary: liveState{},
		Bottom:   func() liveState { return nil },
		Join:     joinLive,
		Equal:    equalLive,
		Transfer: func(n ast.Node, s liveState) liveState { return u.applyLive(n, s, false) },
	}
	res := Solve(g, an)
	for _, blk := range g.Blocks {
		s := res.In[blk.Index] // fact at block end (backward)
		for i := len(blk.Nodes) - 1; i >= 0; i-- {
			s = u.applyLive(blk.Nodes[i], s, true)
		}
	}
}

// applyLive folds one node backward: writes check-and-kill liveness,
// reads establish it. With report set it emits the dead-store finding.
func (u *errFlowUnit) applyLive(n ast.Node, s liveState, report bool) liveState {
	if s == nil {
		return nil
	}
	write := func(id *ast.Ident, rhs ast.Expr, s liveState) liveState {
		v := u.trackedErrVar(id)
		if v == nil {
			return s
		}
		if rhs != nil {
			if tv, ok := u.pass.Pkg.Info.Types[rhs]; ok && tv.IsNil() {
				return s // err = nil is a reset, not a droppable error
			}
		}
		f := s[v]
		if report && !f.live {
			if f.killPos != token.NoPos {
				u.pass.Reportf(id.Pos(), "the error assigned to %s here is overwritten at %s before any path checks it — the first failure is lost", id.Name, posString(u.pass.Pkg.Fset, f.killPos))
			} else {
				u.pass.Reportf(id.Pos(), "the error assigned to %s here is never checked on any path before the function returns", id.Name)
			}
		}
		out := make(liveState, len(s))
		for k, fv := range s {
			out[k] = fv
		}
		out[v] = liveFact{live: false, killPos: id.Pos()}
		return out
	}
	reads := func(n ast.Node, s liveState) liveState {
		if n == nil {
			return s
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := u.pass.Pkg.Info.Uses[x.(*ast.Ident)].(*types.Var); ok {
				if f := s[v]; !f.live && u.trackedErrVar(id) != nil {
					out := make(liveState, len(s))
					for k, fv := range s {
						out[k] = fv
					}
					out[v] = liveFact{live: true}
					s = out
				}
			}
			return true
		})
		return s
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		// Backward: the write happens after the RHS reads, so fold the
		// kills first, then the reads.
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[indexOfExpr(n.Lhs, lhs)]
				}
				s = write(id, rhs, s)
			} else {
				s = reads(lhs, s)
			}
		}
		for _, rhs := range n.Rhs {
			s = reads(rhs, s)
		}
		return s
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					for i, name := range vs.Names {
						var rhs ast.Expr
						if len(vs.Values) == len(vs.Names) {
							rhs = vs.Values[i]
						}
						s = write(name, rhs, s)
					}
					for _, val := range vs.Values {
						s = reads(val, s)
					}
				}
			}
		}
		return s
	default:
		return reads(n, s)
	}
}

// escapedErrVars collects the error variables this unit must not
// track: referenced inside a nested function literal (reads and writes
// happen off this CFG) or address-taken (aliased through a pointer).
func escapedErrVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(id *ast.Ident) {
		if v, ok := info.ObjectOf(id).(*types.Var); ok && isErrorType(v.Type()) {
			out[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					mark(id)
				}
				return true
			})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					mark(id)
				}
			}
		}
		return true
	})
	return out
}

// trackedErrVar resolves id to a local error variable worth tracking:
// declared in a function body (not a parameter or named result, whose
// lifetime we do not see end-to-end) and not escaped.
func (u *errFlowUnit) trackedErrVar(id *ast.Ident) *types.Var {
	v, ok := u.pass.Pkg.Info.ObjectOf(id).(*types.Var)
	if !ok || !isErrorType(v.Type()) || u.excluded[v] {
		return nil
	}
	if v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	if v.Pos() < u.bodyPos { // parameter, receiver, or named result
		return nil
	}
	return v
}

// apply is both the transfer function (report=false) and the
// diagnostic pass (report=true); it folds one CFG node into s.
func (u *errFlowUnit) apply(n ast.Node, s *errState) *errState {
	if s == nil { // unreachable path: nothing to track
		return nil
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		return u.applyAssign(n, s)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				for _, val := range vs.Values {
					s = u.markUses(val, s)
				}
				for i, name := range vs.Names {
					if v := u.trackedErrVar(name); v != nil {
						var rhs ast.Expr
						if len(vs.Values) == len(vs.Names) {
							rhs = vs.Values[i]
						}
						s = u.setAssigned(v, name.Pos(), rhs, s)
					}
				}
			}
		}
		return s
	default:
		return u.markUses(n, s)
	}
}

// applyAssign folds an assignment: RHS reads first (so `err =
// wrap(err)` consumes the old value), then the overwrite check and the
// new facts for each LHS error variable, then result pairing for
// `v, err := call()` forms.
func (u *errFlowUnit) applyAssign(n *ast.AssignStmt, s *errState) *errState {
	for _, rhs := range n.Rhs {
		s = u.markUses(rhs, s)
	}
	for _, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			// m[k] = ..., p.f = ...: the base and index are reads.
			s = u.markUses(lhs, s)
			continue
		}
		if id.Name == "_" {
			continue
		}
		v := u.trackedErrVar(id)
		if v == nil {
			// Assigning any variable kills its result pairing.
			if rv, ok := u.pass.Pkg.Info.ObjectOf(id).(*types.Var); ok {
				if _, had := s.res[rv]; had {
					s = s.clone()
					delete(s.res, rv)
				}
			}
			continue
		}
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[indexOfExpr(n.Lhs, lhs)]
		}
		s = u.setAssigned(v, id.Pos(), rhs, s)
	}
	// v1, v2, err := call(): pair each non-error result with err.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		if _, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			var errVar *types.Var
			errCount := 0
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					if v, ok := u.pass.Pkg.Info.ObjectOf(id).(*types.Var); ok && isErrorType(v.Type()) {
						errVar = v
						errCount++
					}
				}
			}
			if errCount == 1 && errVar != nil && !u.excluded[errVar] {
				s = s.clone()
				for _, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if v, ok := u.pass.Pkg.Info.ObjectOf(id).(*types.Var); ok && v != errVar {
						s.res[v] = resultFact{errVar: errVar, pos: n.Pos()}
					}
				}
			}
		}
	}
	return s
}

// setAssigned records a fresh assignment to error variable v. A nil
// RHS (err = nil) clears the pending error instead.
func (u *errFlowUnit) setAssigned(v *types.Var, pos token.Pos, rhs ast.Expr, s *errState) *errState {
	s = s.clone()
	// A fresh error kills pairings from the previous call: results
	// guarded by the old value are no longer tied to this variable.
	for r, rf := range s.res {
		if rf.errVar == v {
			delete(s.res, r)
		}
	}
	if rhs != nil {
		if tv, ok := u.pass.Pkg.Info.Types[rhs]; ok && tv.IsNil() {
			delete(s.errs, v)
			return s
		}
	}
	s.errs[v] = errFact{assignPos: pos, assigned: true}
	return s
}

// markUses walks an expression/statement (function literals excluded —
// they are separate units), handling nil comparisons of tracked error
// variables (checked bit + the shadowed-check finding) and flagging uses
// of paired results on non-nil-error paths.
func (u *errFlowUnit) markUses(n ast.Node, s *errState) *errState {
	if n == nil {
		return s
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if v := u.nilComparedVar(x); v != nil && isErrorType(v.Type()) {
				if u.report {
					u.shadowCheck(x, v, s)
				}
				if f, ok := s.errs[v]; ok {
					f.checked = true
					s = s.clone()
					s.errs[v] = f
					return false // operands handled
				}
			}
		case *ast.SelectorExpr:
			u.checkErrPathUse(x.X, "field or method access", s)
		case *ast.StarExpr:
			u.checkErrPathUse(x.X, "dereference", s)
		case *ast.IndexExpr:
			u.checkErrPathUse(x.X, "index", s)
		case *ast.SliceExpr:
			u.checkErrPathUse(x.X, "slice", s)
		case *ast.CallExpr:
			u.checkErrPathUse(x.Fun, "call", s)
		case *ast.RangeStmt:
			u.checkErrPathUse(x.X, "range", s)
		}
		return true
	})
	return s
}

// shadowCheck reports a nil comparison of v when a different,
// later-declared variable of the same name carries an unchecked error
// on this path — the check reads the shadowed-out value.
func (u *errFlowUnit) shadowCheck(at *ast.BinaryExpr, v *types.Var, s *errState) {
	type cand struct {
		w *types.Var
		f errFact
	}
	var cands []cand
	// Paths that returned inside the shadowing scope never reach this
	// check, so "assigned and not nil-checked" here means the inner
	// error really was dropped on this path — a read (logging, say)
	// is not a check.
	for w, f := range s.errs {
		if w != v && w.Name() == v.Name() && w.Pos() > v.Pos() && f.assigned && !f.checked {
			cands = append(cands, cand{w, f})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].w.Pos() < cands[j].w.Pos() })
	for _, c := range cands {
		u.pass.Reportf(at.Pos(), "this nil check reads %s declared at %s, but the shadowing %s assigned at %s is never checked on this path", v.Name(), posString(u.pass.Pkg.Fset, v.Pos()), c.w.Name(), posString(u.pass.Pkg.Fset, c.f.assignPos))
	}
}

// checkErrPathUse reports a dereference-like use of a result variable
// whose paired error is known non-nil on this path.
func (u *errFlowUnit) checkErrPathUse(base ast.Expr, how string, s *errState) {
	if !u.report {
		return
	}
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := u.pass.Pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	rf, ok := s.res[v]
	if !ok {
		return
	}
	if f, ok := s.errs[rf.errVar]; ok && f.nonNil {
		u.pass.Reportf(id.Pos(), "%s of %s on the path where %s != nil: the result of the failed call at %s may be nil or zero", how, id.Name, rf.errVar.Name(), posString(u.pass.Pkg.Fset, rf.pos))
	}
}

// refine is the edge transfer: a branch on `x != nil` / `x == nil`
// sharpens the state on the corresponding edge — an error variable
// becomes known non-nil, a result variable proven non-nil drops its
// pairing (the use is guarded).
func (u *errFlowUnit) refine(from, to *Block, s *errState) *errState {
	if s == nil || from.Cond == nil || len(from.Succs) < 2 || from.Succs[0] == from.Succs[1] {
		return s
	}
	cmp, ok := ast.Unparen(from.Cond).(*ast.BinaryExpr)
	if !ok {
		return s
	}
	v := u.nilComparedVar(cmp)
	if v == nil {
		return s
	}
	onTrue := to == from.Succs[0]
	// nonNilHere: does this edge imply the variable is non-nil?
	nonNilHere := (cmp.Op == token.NEQ) == onTrue
	if f, ok := s.errs[v]; ok {
		if f.nonNil != nonNilHere {
			s = s.clone()
			f.nonNil = nonNilHere
			s.errs[v] = f
		}
		return s
	}
	if _, ok := s.res[v]; ok && nonNilHere {
		s = s.clone()
		delete(s.res, v) // guarded: proven non-nil on this edge
	}
	return s
}

// nilComparedVar returns the variable in a `v == nil` / `v != nil`
// comparison, or nil for any other expression.
func (u *errFlowUnit) nilComparedVar(cmp *ast.BinaryExpr) *types.Var {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return nil
	}
	info := u.pass.Pkg.Info
	isNil := func(e ast.Expr) bool {
		tv, ok := info.Types[ast.Unparen(e)]
		return ok && tv.IsNil()
	}
	var operand ast.Expr
	switch {
	case isNil(cmp.Y):
		operand = cmp.X
	case isNil(cmp.X):
		operand = cmp.Y
	default:
		return nil
	}
	id, ok := ast.Unparen(operand).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

func indexOfExpr(list []ast.Expr, e ast.Expr) int {
	for i, x := range list {
		if x == e {
			return i
		}
	}
	return 0
}
