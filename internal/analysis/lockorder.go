package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder is the deadlock analyzer: it runs the held-lock dataflow
// (cfg.go + dataflow.go) over every function body in the module, joins
// the per-function results through the whole-program call graph, and
// reports path properties no syntactic check can see:
//
//   - lock-order cycles: lock A is held while B is acquired on one
//     path, and B is held while A is acquired on another — in the same
//     package or across packages via the call graph. Two goroutines
//     interleaving those paths deadlock. Both acquisition sites are
//     named; the diagnostic lands on the acquisition that closes the
//     cycle.
//   - double lock / RW upgrade: re-acquiring a sync.Mutex the path
//     already holds (sync mutexes are not reentrant), or taking
//     Lock/RLock on an RWMutex whose write (or, for Lock, read) side
//     the path already holds — including through a call chain, where
//     the callee that re-acquires is named.
//   - held at exit: a lock still held on at least one path into the
//     function exit (after deferred unlocks run) — never released at
//     all, released only on some paths (the conditional-early-return
//     bug), or released on the wrong side (RLock paired with Unlock:
//     Unlock releases only the write side, RUnlock only the read side).
//     Calls through function values are not followed, so a lock
//     released only inside a stored closure (`done := func() {
//     mu.Unlock() }`) reads as held; release it directly or by defer.
//
// The held-lock state is a may-analysis (union join): an acquisition
// on either branch of an if counts as held after the join. Deferred
// calls are modeled as running on every exit path (cfg.go's defers
// block), so `defer mu.Unlock()` never yields a false
// held-at-exit. Function literals that do not run in place (inPlaceLits)
// — goroutine bodies and stored or passed closures — are analyzed as
// their own units: locks held where the literal appears do not leak
// into its body, and its acquisitions do not count toward the
// enclosing function's summary, but its own acquisition order still
// feeds the global graph, which is what makes cross-goroutine
// inversions visible.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "detect lock-order deadlock cycles (cross-package), double locks, and locks still held when a function returns",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	owned := pass.ownedFiles()
	for _, f := range pass.Mod.lockFindings {
		if owned[pass.Pkg.Fset.Position(f.pos).Filename] {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// ownedFiles returns the set of file names this pass's package declares —
// the filter that keeps module-wide facts reported exactly once, in the
// package that owns the diagnostic's site (so a //lint:ignore at the
// reported line suppresses it; see RunModule).
func (p *Pass) ownedFiles() map[string]bool {
	out := make(map[string]bool, len(p.Pkg.Files))
	for _, f := range p.Pkg.Files {
		out[p.Pkg.Fset.Position(f.Pos()).Filename] = true
	}
	return out
}

// lockID identifies one lock across the module: the mutex field or
// variable object when the receiver resolves to one, plus a stable
// human-readable name ("dnswire.Server.mu"). Receivers too dynamic to
// resolve (map elements, results of calls) fall back to a
// function-scoped expression string with a nil object.
type lockID struct {
	v    *types.Var
	name string
}

// heldLock is one element of the dataflow state: a lock the current
// path may hold, on which sides, and where it was first acquired.
type heldLock struct {
	id  lockID
	w   bool // write side (Lock) may be held
	r   bool // read side (RLock) may be held
	pos token.Pos
}

// heldSet is the lattice state: the set of locks a path into this
// point may hold, sorted by name then declaration position. Treated as
// immutable — add/remove copy.
type heldSet []heldLock

func (s heldSet) find(id lockID) int {
	for i, h := range s {
		if h.id == id {
			return i
		}
	}
	return -1
}

func heldLess(a, b heldLock) bool {
	if a.id.name != b.id.name {
		return a.id.name < b.id.name
	}
	av, bv := token.NoPos, token.NoPos
	if a.id.v != nil {
		av = a.id.v.Pos()
	}
	if b.id.v != nil {
		bv = b.id.v.Pos()
	}
	return av < bv
}

func (s heldSet) add(id lockID, w bool, pos token.Pos) heldSet {
	h := heldLock{id: id, w: w, r: !w, pos: pos}
	if i := s.find(id); i >= 0 {
		h = mergeHeld(s[i], h)
		if h == s[i] {
			return s
		}
		out := append(heldSet(nil), s...)
		out[i] = h
		return out
	}
	out := make(heldSet, 0, len(s)+1)
	out = append(out, s...)
	out = append(out, h)
	sort.Slice(out, func(i, j int) bool { return heldLess(out[i], out[j]) })
	return out
}

// release drops one side of id: Unlock the write side, RUnlock the read
// side. The lock leaves the set once neither side may be held.
func (s heldSet) release(id lockID, w bool) heldSet {
	i := s.find(id)
	if i < 0 {
		return s
	}
	h := s[i]
	if w {
		h.w = false
	} else {
		h.r = false
	}
	if h == s[i] {
		return s
	}
	out := append(heldSet(nil), s[:i]...)
	if h.w || h.r {
		out = append(out, h)
	}
	return append(out, s[i+1:]...)
}

// mergeHeld joins two states of the same lock: either side held on
// either path, first acquisition wins.
func mergeHeld(a, b heldLock) heldLock {
	a.w, a.r = a.w || b.w, a.r || b.r
	if b.pos < a.pos {
		a.pos = b.pos
	}
	return a
}

func joinHeld(a, b heldSet) heldSet {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := append(heldSet(nil), a...)
	for _, h := range b {
		if i := out.find(h.id); i >= 0 {
			out[i] = mergeHeld(out[i], h)
		} else {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return heldLess(out[i], out[j]) })
	return out
}

func equalHeld(a, b heldSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lockFinding is one diagnostic-to-be, positioned so the analyzer pass
// owning the file reports it.
type lockFinding struct {
	pos token.Pos
	msg string
}

// lockEdge is one arc of the global acquisition-order graph: from is
// held while to is acquired (at toPos; from was acquired at fromPos).
type lockEdge struct {
	from, to       lockID
	fromPos, toPos token.Pos
}

// lockUnit is one independently analyzed body: a function declaration
// or a function literal that runs on its own schedule (a goroutine
// body, or a closure stored/passed rather than invoked in place).
type lockUnit struct {
	pkg  *Package
	name string
	body *ast.BlockStmt
}

// acqInfo summarizes one lock a function (transitively) acquires.
type acqInfo struct {
	w   bool
	pos token.Pos
}

// heldCall is one call site reached with locks held.
type heldCall struct {
	callee *types.Func
	pos    token.Pos
	held   heldSet
}

type lockAnalysis struct {
	mod  *Module
	fset *token.FileSet
	// canon assigns each lock object its first-seen display name so
	// every edge/finding names a lock one way.
	canon map[*types.Var]string

	findings  []lockFinding
	edgeSet   map[[2]lockID]lockEdge
	heldCalls []heldCall
	// acq is each declaration's acquisition summary: its direct
	// acquisitions (literals that do not run in place excluded — they
	// run on their own schedule), closed over callees by closeSummaries;
	// callees mirrors the call graph under the same exclusion.
	acq     map[*types.Func]map[lockID]acqInfo
	callees map[*types.Func][]*types.Func
}

// buildLockFacts runs the module-wide lock analysis — per-function
// held-lock dataflow, call-graph propagation of held sets into callee
// acquisition summaries, and cycle detection on the global order graph
// — and returns its findings sorted by position.
func buildLockFacts(m *Module) []lockFinding {
	if len(m.Pkgs) == 0 {
		return nil
	}
	la := &lockAnalysis{
		mod:     m,
		fset:    m.Pkgs[0].Fset,
		canon:   map[*types.Var]string{},
		edgeSet: map[[2]lockID]lockEdge{},
		acq:     map[*types.Func]map[lockID]acqInfo{},
		callees: map[*types.Func][]*types.Func{},
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				inPlace := inPlaceLits(fd.Body)
				la.collectSummaries(pkg, fn, fd, inPlace)
				for _, u := range lockUnits(pkg, fd, inPlace) {
					la.analyzeUnit(u)
				}
			}
		}
	}
	la.closeSummaries()
	la.crossEdges()
	la.cycleFindings()

	sort.Slice(la.findings, func(i, j int) bool {
		a, b := la.findings[i], la.findings[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.msg < b.msg
	})
	return la.findings
}

// inPlaceLits classifies the function literals of one declaration body:
// it returns the set that runs where it appears, on the enclosing
// goroutine — literals called directly, including `defer func(){...}()`,
// which cfg.go folds into the defers block. Every other literal — a
// `go func(){...}()` body, or a closure stored or passed rather than
// invoked — runs on its own schedule: it is a lock unit of its own, and
// its acquisitions are not part of the enclosing function's summary.
func inPlaceLits(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	inPlace := map[*ast.FuncLit]bool{}
	spawned := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt: // visited before its call
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				spawned[lit] = true
			}
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok && !spawned[lit] {
				inPlace[lit] = true
			}
		}
		return true
	})
	return inPlace
}

// lockUnits enumerates the analysis units of one declaration: the body
// itself, plus every function literal that does not run in place.
func lockUnits(pkg *Package, fd *ast.FuncDecl, inPlace map[*ast.FuncLit]bool) []lockUnit {
	name := fd.Name.Name
	units := []lockUnit{{pkg: pkg, name: name, body: fd.Body}}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && !inPlace[lit] {
			units = append(units, lockUnit{pkg: pkg, name: name + ".func", body: lit.Body})
		}
		return true
	})
	return units
}

// collectSummaries records fn's direct acquisitions and call edges,
// excluding goroutine subtrees and literals that do not run in place
// (their effects belong to their own unit, not the caller's lock path).
func (la *lockAnalysis) collectSummaries(pkg *Package, fn *types.Func, fd *ast.FuncDecl, inPlace map[*ast.FuncLit]bool) {
	if fn == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			return inPlace[n]
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, w, acquire, isLock := la.syncLockCall(pkg, call); isLock {
			if acquire {
				la.acquire(fn, id, acqInfo{w: w, pos: call.Pos()})
			}
			return true
		}
		if callee := calleeFunc(pkg.Info, call); callee != nil && la.mod.decls[callee] != nil {
			la.callees[fn] = append(la.callees[fn], callee)
		}
		return true
	})
}

// analyzeUnit runs the held-lock dataflow over one body and harvests
// findings, intra-procedural order edges, and held call sites.
func (la *lockAnalysis) analyzeUnit(u lockUnit) {
	g := NewCFG(u.body)
	transfer := func(n ast.Node, s heldSet) heldSet {
		return la.applyNode(u, n, s, false)
	}
	res := Solve(g, FlowAnalysis[heldSet]{
		Boundary: nil,
		Bottom:   func() heldSet { return nil },
		Join:     joinHeld,
		Equal:    equalHeld,
		Transfer: transfer,
	})
	// Reporting pass: refold each block from its fixpoint input with
	// callbacks armed.
	for _, blk := range g.Blocks {
		s := res.In[blk.Index]
		for _, n := range blk.Nodes {
			s = la.applyNode(u, n, s, true)
		}
	}
	// Held at exit, after deferred releases run.
	for _, h := range res.In[g.Exit.Index] {
		side := "Unlock"
		if !h.w {
			side = "RUnlock"
		}
		la.findings = append(la.findings, lockFinding{
			pos: h.pos,
			msg: fmt.Sprintf("%s may still be held when %s returns; %s it on every path or defer the %s", h.id.name, u.name, side, side),
		})
	}
}

// applyNode executes one CFG node's lock effects against s. With
// report set it also emits findings and records order edges and held
// call sites (the reporting refold); without, it is the pure transfer
// function for the fixpoint.
func (la *lockAnalysis) applyNode(u lockUnit, n ast.Node, s heldSet, report bool) heldSet {
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.GoStmt, *ast.DeferStmt, *ast.FuncLit:
				// Goroutine bodies and stored closures are separate
				// units; defer registration has no effect here (the
				// deferred call sits in the defers block).
				_ = x
				return false
			case *ast.CallExpr:
				if lit, ok := x.Fun.(*ast.FuncLit); ok {
					// Invoked in place (incl. from the defers block):
					// the body runs here, on this goroutine.
					for _, arg := range x.Args {
						visit(arg)
					}
					visit(lit.Body)
					return false
				}
				if id, w, acquire, isLock := la.syncLockCall(u.pkg, x); isLock {
					if acquire {
						if report {
							la.reportAcquire(u, x, id, w, s)
						}
						s = s.add(id, w, x.Pos())
					} else {
						s = s.release(id, w)
					}
					return false
				}
				if report && len(s) > 0 {
					if callee := calleeFunc(u.pkg.Info, x); callee != nil && la.mod.decls[callee] != nil {
						held := append(heldSet(nil), s...)
						la.heldCalls = append(la.heldCalls, heldCall{callee: callee, pos: x.Pos(), held: held})
					}
				}
			}
			return true
		})
	}
	visit(n)
	return s
}

// reportAcquire emits the double-lock/upgrade findings and records
// intra-procedural order edges for an acquisition under held set s.
func (la *lockAnalysis) reportAcquire(u lockUnit, call *ast.CallExpr, id lockID, w bool, s heldSet) {
	for _, h := range s {
		if h.id == id {
			switch {
			case w && h.w:
				la.findings = append(la.findings, lockFinding{pos: call.Pos(),
					msg: fmt.Sprintf("double Lock of %s: already locked at %s on this path; sync mutexes are not reentrant, this deadlocks", id.name, posString(la.fset, h.pos))})
			case w:
				la.findings = append(la.findings, lockFinding{pos: call.Pos(),
					msg: fmt.Sprintf("Lock of %s while its read lock is held (RLock at %s); upgrading RLock to Lock deadlocks", id.name, posString(la.fset, h.pos))})
			case !w && h.w:
				la.findings = append(la.findings, lockFinding{pos: call.Pos(),
					msg: fmt.Sprintf("RLock of %s while its write lock is held (Lock at %s); this deadlocks", id.name, posString(la.fset, h.pos))})
				// RLock while RLock held is legal (shared readers).
			}
			continue
		}
		la.addEdge(h.id, h.pos, id, call.Pos())
	}
}

func (la *lockAnalysis) addEdge(from lockID, fromPos token.Pos, to lockID, toPos token.Pos) {
	if from == to {
		return
	}
	key := [2]lockID{from, to}
	if prev, ok := la.edgeSet[key]; ok {
		// Keep the lexically first site pair so output is independent
		// of discovery order.
		if fromPos > prev.fromPos || (fromPos == prev.fromPos && toPos >= prev.toPos) {
			return
		}
	}
	la.edgeSet[key] = lockEdge{from: from, to: to, fromPos: fromPos, toPos: toPos}
}

// acquire records in fn's summary that a call to fn may acquire id as a
// (write side, either side; first site wins) and reports whether the
// summary changed.
func (la *lockAnalysis) acquire(fn *types.Func, id lockID, a acqInfo) bool {
	set := la.acq[fn]
	if set == nil {
		set = map[lockID]acqInfo{}
		la.acq[fn] = set
	}
	if prev, ok := set[id]; ok {
		a = acqInfo{w: prev.w || a.w, pos: min(prev.pos, a.pos)}
		if a == prev {
			return false
		}
	}
	set[id] = a
	return true
}

// closeSummaries closes the acquisition summaries over the call graph:
// afterwards acq[fn] holds everything a call to fn may acquire, in fn or
// any (transitive) callee.
func (la *lockAnalysis) closeSummaries() {
	for changed := true; changed; {
		changed = false
		for fn, callees := range la.callees {
			for _, callee := range callees {
				for id, a := range la.acq[callee] {
					changed = la.acquire(fn, id, a) || changed
				}
			}
		}
	}
}

// crossEdges turns each held call site into order edges (and
// re-entrant acquisition findings) against the callee's transitive
// acquisition summary.
func (la *lockAnalysis) crossEdges() {
	for _, hc := range la.heldCalls {
		acq := la.acq[hc.callee]
		if len(acq) == 0 {
			continue
		}
		for _, h := range hc.held {
			for id, a := range acq {
				if id == h.id {
					if !h.w && !a.w {
						continue // nested read locks are legal
					}
					la.findings = append(la.findings, lockFinding{pos: hc.pos,
						msg: fmt.Sprintf("call to %s while holding %s (locked at %s); %s acquires %s again at %s — re-entrant locking deadlocks",
							hc.callee.Name(), h.id.name, posString(la.fset, h.pos), hc.callee.Name(), id.name, posString(la.fset, a.pos))})
					continue
				}
				la.addEdge(h.id, h.pos, id, a.pos)
			}
		}
	}
}

// cycleFindings reports every edge of the order graph that lies on a
// cycle — its target reaches its source again — naming the whole cycle
// (every lock on a cycle through the edge's source) so a reader sees it
// from any one report. Each such edge is an acquisition that, with the
// rest of the cycle, can deadlock concurrent callers.
func (la *lockAnalysis) cycleFindings() {
	adj := map[lockID][]lockID{}
	for key := range la.edgeSet {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	// reach[a][b]: b is reachable from a along at least one edge.
	reach := map[lockID]map[lockID]bool{}
	for root := range adj {
		seen := map[lockID]bool{}
		var visit func(n lockID)
		visit = func(n lockID) {
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					visit(m)
				}
			}
		}
		visit(root)
		reach[root] = seen
	}
	var cyclic []lockEdge
	for _, e := range la.edgeSet {
		if reach[e.to][e.from] {
			cyclic = append(cyclic, e)
		}
	}
	sort.Slice(cyclic, func(i, j int) bool {
		a, b := cyclic[i], cyclic[j]
		if a.toPos != b.toPos {
			return a.toPos < b.toPos
		}
		return a.from.name < b.from.name
	})
	for _, e := range cyclic {
		var members []string
		for id := range reach[e.from] {
			if reach[id][e.from] {
				members = append(members, id.name)
			}
		}
		sort.Strings(members)
		la.findings = append(la.findings, lockFinding{pos: e.toPos,
			msg: fmt.Sprintf("lock-order cycle: %s is acquired here while %s is held (locked at %s), but another path acquires them in the opposite order [cycle: %s]; concurrent callers deadlock",
				e.to.name, e.from.name, posString(la.fset, e.fromPos), strings.Join(members, " ⇄ "))})
	}
}

// syncLockCall classifies call as a sync.Mutex/RWMutex operation,
// resolving the lock's identity: (id, write-side, acquire, true) for
// Lock/RLock/Unlock/RUnlock calls, with embedded mutexes resolved
// through the selection's field path.
func (la *lockAnalysis) syncLockCall(pkg *Package, call *ast.CallExpr) (id lockID, w, acquire, isLock bool) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockID{}, false, false, false
	}
	fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockID{}, false, false, false
	}
	switch fn.Name() {
	case "Lock":
		w, acquire = true, true
	case "RLock":
		w, acquire = false, true
	case "Unlock":
		w, acquire = true, false
	case "RUnlock":
		w, acquire = false, false
	default:
		return lockID{}, false, false, false
	}
	return la.resolveLock(pkg, fun), w, acquire, true
}

// resolveLock derives the lock identity from the method selector:
// either the explicit mutex operand (s.mu.Lock → field mu of s's
// type), an embedded mutex (t.Lock → the promoted field), or a scoped
// expression-string fallback.
func (la *lockAnalysis) resolveLock(pkg *Package, fun *ast.SelectorExpr) lockID {
	// Embedded mutex: the selection walks through promoted fields.
	if sel, ok := pkg.Info.Selections[fun]; ok {
		idx := sel.Index()
		if len(idx) > 1 {
			t := sel.Recv()
			var fv *types.Var
			var owner *types.Named
			for _, i := range idx[:len(idx)-1] {
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				if n, ok := t.(*types.Named); ok {
					owner = n
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					fv = nil
					break
				}
				fv = st.Field(i)
				t = fv.Type()
			}
			if fv != nil {
				return la.canonical(fv, ownerName(owner, fv.Name()))
			}
		}
	}
	lockExpr := ast.Unparen(fun.X)
	switch x := lockExpr.(type) {
	case *ast.SelectorExpr: // recv.mu
		if v, ok := pkg.Info.ObjectOf(x.Sel).(*types.Var); ok {
			base := pkg.Info.TypeOf(x.X)
			var owner *types.Named
			if base != nil {
				if p, ok := base.Underlying().(*types.Pointer); ok {
					base = p.Elem()
				}
				if n, ok := base.(*types.Named); ok {
					owner = n
				}
			}
			return la.canonical(v, ownerName(owner, x.Sel.Name))
		}
	case *ast.Ident: // package-level or local mutex variable
		if v, ok := pkg.Info.ObjectOf(x).(*types.Var); ok {
			name := x.Name
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				name = shortPkg(v.Pkg().Path()) + "." + x.Name
			}
			return la.canonical(v, name)
		}
	}
	// Dynamic receiver (map element, call result): scoped text.
	return lockID{name: pkg.Path + "#" + types.ExprString(lockExpr)}
}

// canonical returns v's lockID, registering the first-seen display
// name so the same lock is always reported under one name.
func (la *lockAnalysis) canonical(v *types.Var, name string) lockID {
	if prev, ok := la.canon[v]; ok {
		return lockID{v: v, name: prev}
	}
	la.canon[v] = name
	return lockID{v: v, name: name}
}

func ownerName(owner *types.Named, field string) string {
	if owner == nil || owner.Obj().Pkg() == nil {
		return field
	}
	return shortPkg(owner.Obj().Pkg().Path()) + "." + owner.Obj().Name() + "." + field
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
