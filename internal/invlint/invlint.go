// Package invlint is a suite of static analyzers that prove the
// repository's determinism contract. Every result this reproduction
// reports — the figure tables, the §6–§9 shape checks, the golden
// SHA-256 geometry digests, the experiments.Key result cache — rests on
// one invariant: a run is a pure function of its inputs, so two
// executions of the same Key are bit-identical. The golden tests enforce
// that contract dynamically, on the inputs they happen to run; the two
// analyzers here guard what no test can observe (DESIGN.md §10):
//
//   - detlint: the deterministic packages must not read wall-clock time,
//     use the global math/rand source, or let map iteration order leak
//     into slices, channels, rendered output or digests.
//   - simtime: code reachable from a sim.Proc body may block only on
//     virtual-time primitives, never OS time, goroutines or bare
//     channel operations.
//
// The Key and counter identities are behaviour, and tests hold them:
// TestKeyFieldIdentity in internal/experiments, TestProcStatsAggregated
// and TestSummaryRendered in internal/metrics.
//
// The analyzers mirror the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, diagnostics with positions) but are built entirely on
// the standard library's go/ast, go/types and go/importer, because this
// module deliberately has no external dependencies. They run as tests:
// TestTreeHoldsContract checks the module itself under go test, and
// TestCorpora checks each analyzer against its testdata corpora.
package invlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker, mirroring the x/tools go/analysis
// Analyzer shape on the standard library.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Run reports the analyzer's findings on one package via
	// Pass.reportf.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Analyzer is the checker this pass runs.
	Analyzer *Analyzer
	// Fset maps token positions of Files.
	Fset *token.FileSet
	// Files are the parsed source files of the package, including any
	// in-package test files when the unit was built with them.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info

	report func(Diagnostic)
}

// reportf records a finding at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	// Analyzer names the checker that produced the finding.
	Analyzer string
	// Pos locates the finding in the source.
	Pos token.Position
	// Message describes the violation.
	Message string
}

// String renders the diagnostic the way vet prints findings.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// unit is one loadable compilation unit: a parsed, type-checked package
// ready to be analyzed.
type unit struct {
	// Fset maps token positions of Files.
	Fset *token.FileSet
	// Files are the unit's parsed source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds type-checking results for Files.
	Info *types.Info
}

// runUnit applies analyzers to a unit and returns their diagnostics in
// position order.
func runUnit(u *unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer: a,
			Fset:     u.Fset,
			Files:    u.Files,
			Pkg:      u.Pkg,
			Info:     u.Info,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// --- shared analyzer helpers ---

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method), or nil for builtins, conversions
// and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package declaring fn, or ""
// for builtins.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isTestFile reports whether the file's name has the _test.go suffix.
func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Package).Filename, "_test.go")
}

// namedTypePath returns (package path, type name) of t's core named
// type, unwrapping pointers and aliases; ok is false for unnamed types
// and types from no package (builtins).
func namedTypePath(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := types.Unalias(t).(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}
