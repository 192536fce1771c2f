// Package analysis is anycastvet: a small, dependency-free static-analysis
// framework (stdlib go/ast + go/types only) that enforces the repository's
// cross-cutting invariants, one check per invariant: replay safety of
// everything a figure is computed from (replaysafety), disciplined error
// handling (uncheckederr, errflow), lock discipline (lockorder; lock
// copies are go vet's copylocks), documented locking contracts
// (lockdoc), no panics in library packages (nopanic), joined goroutines
// (goroutineleak), ctx-bounded network I/O (ctxpropagation), dimensional
// safety for the ms/km quantities in internal/units (unitsafety), and
// allocation-free hot paths (hotpathalloc).
//
// The paper's results (anycast vs. unicast latency deltas, catchments,
// day-over-day prediction) are only trustworthy if a rerun with the same
// seed reproduces them bit-for-bit and the concurrent measurement plumbing
// is race-free. These analyzers make the machine check those properties on
// every `go test ./...` (see self_test.go) instead of trusting review.
//
// Diagnostics may be suppressed with a justified escape hatch on the same
// or the preceding line:
//
//	//lint:ignore <check> <reason>
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the check identifier used in output and //lint:ignore.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package and reports diagnostics via the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one type-checked package, plus the
// whole-module facts (Mod) shared by every pass of the run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Mod holds the cross-package facts (call graph reachability,
	// hot-path annotations) derived once per run by NewModule.
	Mod    *Module
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Pkg.Fset.Position(pos).Filename, "_test.go")
}

// PkgNameOf returns the imported package a selector's base identifier
// refers to, or nil when the base is not a package name (e.g. a variable).
func (p *Pass) PkgNameOf(sel *ast.SelectorExpr) *types.PkgName {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := p.Pkg.Info.Uses[id].(*types.PkgName)
	return pn
}

// Diagnostic is one reported violation. File is relative to the module
// root when produced by LoadModule.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		UncheckedErr, NoPanic, GoroutineLeak, CtxPropagation, UnitSafety,
		LockDoc, ReplaySafety, HotPathAlloc, LockOrder, ErrFlow,
	}
}

// posString renders pos as file:line for naming a second site in a
// diagnostic message.
func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
