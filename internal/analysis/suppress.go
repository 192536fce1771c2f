package analysis

import (
	"go/ast"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ignoreKey locates one //lint:ignore directive.
type ignoreKey struct {
	file string
	line int
}

// collectIgnores gathers //lint:ignore directives from a package's
// comments. A directive suppresses matching diagnostics on its own line
// (trailing comment) and on the statement directly below it — including
// every continuation line when that statement spans several (see
// stmtExtents). Malformed directives — a missing check name or a missing
// justification — are themselves reported as "lint" diagnostics, so the
// escape hatch cannot silently rot.
func collectIgnores(pkg *Package, report func(Diagnostic)) map[ignoreKey]map[string]bool {
	extents := stmtExtents(pkg)
	out := map[ignoreKey]map[string]bool{}
	cover := func(file string, line int, check string) {
		key := ignoreKey{file: file, line: line}
		if out[key] == nil {
			out[key] = map[string]bool{}
		}
		out[key][check] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(Diagnostic{
						File:    pos.Filename,
						Line:    pos.Line,
						Col:     pos.Column,
						Check:   "lint",
						Message: "malformed //lint:ignore: want \"//lint:ignore <check> <reason>\"",
					})
					continue
				}
				check := fields[0]
				// The directive's own line (trailing comment) and the line
				// below it (comment above the statement) are covered, each
				// extended to the end of any multi-line statement starting
				// there.
				for _, start := range []int{pos.Line, pos.Line + 1} {
					end := start
					if e, ok := extents[pos.Filename][start]; ok && e > end {
						end = e
					}
					for line := start; line <= end; line++ {
						cover(pos.Filename, line, check)
					}
				}
			}
		}
	}
	return out
}

// stmtExtents maps, per file, the starting line of each statement or
// declaration to the last line it spans. A //lint:ignore above a
// multi-line call or declaration must suppress diagnostics reported on
// its continuation lines, not just its first.
func stmtExtents(pkg *Package) map[string]map[int]int {
	out := map[string]map[int]int{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case ast.Stmt, ast.Decl, *ast.Field:
			default:
				return true
			}
			start := pkg.Fset.Position(n.Pos())
			end := pkg.Fset.Position(n.End()).Line
			lines := out[start.Filename]
			if lines == nil {
				lines = map[int]int{}
				out[start.Filename] = lines
			}
			if end > lines[start.Line] {
				lines[start.Line] = end
			}
			return true
		})
	}
	return out
}

// suppressed reports whether d is covered by an ignore directive.
func suppressed(ignores map[ignoreKey]map[string]bool, d Diagnostic) bool {
	checks, ok := ignores[ignoreKey{file: d.File, line: d.Line}]
	return ok && checks[d.Check]
}

// Timing is one analyzer's total wall-clock across every package it ran
// on (tasks run in parallel, so timings overlap and do not sum to the
// pass's elapsed time).
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// Run derives cross-package facts for pkgs and applies analyzers,
// returning the surviving diagnostics sorted by file, line, column, and
// check. Callers that already hold a Module (to analyze a package subset
// against whole-module facts) use RunModule directly.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunModule(NewModule(pkgs), pkgs, analyzers)
	return diags
}

// RunModule applies analyzers to pkgs with facts drawn from mod, running
// every (package, analyzer) pair as its own parallel task. pkgs must be
// mod.Pkgs or a subset of it — facts still reflect the whole module, so a
// cross-package property (replay reachability into a package outside the
// selection) is never lost by narrowing the report scope. Diagnostics
// are deterministic: tasks write to indexed slots and the merged result
// is sorted, so the schedule cannot reorder output.
func RunModule(mod *Module, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	slots := make([][]Diagnostic, len(pkgs)*len(analyzers))
	elapsed := make([]int64, len(analyzers))
	var wg sync.WaitGroup
	for pi := range pkgs {
		for ai := range analyzers {
			wg.Add(1)
			go func(pi, ai int) {
				defer wg.Done()
				var diags []Diagnostic
				pass := &Pass{
					Analyzer: analyzers[ai],
					Pkg:      pkgs[pi],
					Mod:      mod,
					report:   func(d Diagnostic) { diags = append(diags, d) },
				}
				start := time.Now()
				analyzers[ai].Run(pass)
				atomic.AddInt64(&elapsed[ai], int64(time.Since(start)))
				slots[pi*len(analyzers)+ai] = diags
			}(pi, ai)
		}
	}
	wg.Wait()

	// Ignores are collected from every package of the module, not just
	// the report selection: a module-fact diagnostic (a lockorder cycle
	// edge, a replaysafety reachability finding) lands in whatever file
	// owns its site, and the //lint:ignore directive lives next to that
	// site — which may belong to a package other than the one whose pass
	// reported it. Suppression is therefore keyed purely by the
	// diagnostic's (file, line, check). Malformed-directive diagnostics
	// stay scoped to the selected packages so narrowing the report scope
	// does not surface lint noise from elsewhere.
	selected := make(map[*Package]bool, len(pkgs))
	for _, pkg := range pkgs {
		selected[pkg] = true
	}
	var raw []Diagnostic
	ignores := map[ignoreKey]map[string]bool{}
	mergeIgnores := func(pkg *Package) {
		report := func(d Diagnostic) {
			if selected[pkg] {
				raw = append(raw, d)
			}
		}
		for key, checks := range collectIgnores(pkg, report) {
			if ignores[key] == nil {
				ignores[key] = checks
				continue
			}
			for check := range checks {
				ignores[key][check] = true
			}
		}
	}
	for _, pkg := range mod.Pkgs {
		mergeIgnores(pkg)
	}

	for i := range slots {
		raw = append(raw, slots[i]...)
	}
	var out []Diagnostic
	for _, d := range raw {
		if !suppressed(ignores, d) {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)

	timings := make([]Timing, len(analyzers))
	for ai, an := range analyzers {
		timings[ai] = Timing{Name: an.Name, Elapsed: time.Duration(elapsed[ai])}
	}
	return out, timings
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}
