// The metriccol analyzer: the metrics package is the run's public
// record — per-processor counters (ProcStats) aggregate into the run
// Summary, the Summary renders as table columns, and the tests pin the
// plumbing. A counter added for a new subsystem (as PRs 2–5 each did)
// that misses one of those stages silently reports zero or never
// reports at all, and nothing fails. The analyzer pins the pipeline:
//
//  1. Every exported ProcStats field must be aggregated by
//     (*Collector).Aggregate (identity fields exempted by name).
//  2. Every exported Summary field must be rendered by a
//     (TableRow).format column.
//  3. When the unit includes the package's test files, every exported
//     ProcStats and Summary field must be referenced by some test.
package invlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// metricsPkgPath is the import path of the counters package.
const metricsPkgPath = "repro/internal/metrics"

// metricsIdentityFields are per-record identity, not counters: exempt
// from aggregation and rendering (they appear in labels instead).
var metricsIdentityFields = map[string]bool{
	"Proc": true,
}

// metricCol proves every exported metrics counter is aggregated,
// rendered and tested.
var metricCol = &Analyzer{
	Name: "metriccol",
	Doc:  "every exported metrics counter must be aggregated, have a table column and be touched by a test",
	Run:  runMetricCol,
}

func runMetricCol(pass *Pass) error {
	if pass.Pkg.Path() != metricsPkgPath {
		return nil
	}
	procStats := metricsStruct(pass, "ProcStats")
	summary := metricsStruct(pass, "Summary")

	decls := make(map[string]*ast.FuncDecl)
	hasTests := false
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			hasTests = true
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[fd.Name.Name] = fd
			}
		}
	}

	if procStats != nil {
		if fd, ok := decls["Aggregate"]; ok {
			reads := structFieldReads(pass, fd.Body, procStats)
			forEachExportedField(procStats, func(name string) {
				if !metricsIdentityFields[name] && !reads[name] {
					pass.reportf(fieldPos(procStats, name), "ProcStats.%s is not aggregated by Aggregate: the counter is recorded per processor but never reaches the run Summary", name)
				}
			})
		} else {
			pass.reportf(pass.Files[0].Pos(), "metriccol contract: no Aggregate method found")
		}
	}

	if summary != nil {
		if fd, ok := decls["format"]; ok {
			reads := structFieldReads(pass, fd.Body, summary)
			forEachExportedField(summary, func(name string) {
				if !metricsIdentityFields[name] && !reads[name] {
					pass.reportf(fieldPos(summary, name), "Summary.%s has no table column: (TableRow).format never renders it, so no table or CSV can report the counter", name)
				}
			})
		} else {
			pass.reportf(pass.Files[0].Pos(), "metriccol contract: no format column renderer found")
		}
	}

	if hasTests {
		refs := make(map[string]bool)
		for _, file := range pass.Files {
			if !isTestFile(pass.Fset, file) {
				continue
			}
			fieldMentions(pass, file, procStats, "ProcStats", refs)
			fieldMentions(pass, file, summary, "Summary", refs)
		}
		report := func(st *types.Named, kind string) {
			if st == nil {
				return
			}
			forEachExportedField(st, func(name string) {
				if !metricsIdentityFields[name] && !refs[kind+"."+name] {
					pass.reportf(fieldPos(st, name), "%s.%s is not touched by any test in the metrics package: a broken counter would go unnoticed", kind, name)
				}
			})
		}
		report(procStats, "ProcStats")
		report(summary, "Summary")
	}
	return nil
}

// metricsStruct resolves a named struct type in the current package.
func metricsStruct(pass *Pass, name string) *types.Named {
	obj, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// forEachExportedField visits the exported fields of a named struct in
// name order (deterministic diagnostics).
func forEachExportedField(named *types.Named, fn func(name string)) {
	st := named.Underlying().(*types.Struct)
	names := make([]string, 0, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Exported() {
			names = append(names, st.Field(i).Name())
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fn(n)
	}
}

// fieldPos returns the declaration position of a struct field, so
// findings anchor on the counter itself.
func fieldPos(named *types.Named, field string) token.Pos {
	st := named.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			return st.Field(i).Pos()
		}
	}
	return named.Obj().Pos()
}

// structFieldReads collects the field names of the named struct
// selected anywhere in body.
func structFieldReads(pass *Pass, body ast.Node, named *types.Named) map[string]bool {
	reads := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if t := pass.Info.TypeOf(sel.X); t != nil && isNamedOrPtr(t, named) {
			reads[sel.Sel.Name] = true
		}
		return true
	})
	return reads
}

// fieldMentions records "<kind>.<field>" for every reference to a field
// of the named struct in file: selector expressions and composite
// literal keys both count as a test "touching" the counter.
func fieldMentions(pass *Pass, file *ast.File, named *types.Named, kind string, refs map[string]bool) {
	if named == nil {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if t := pass.Info.TypeOf(e.X); t != nil && isNamedOrPtr(t, named) {
				refs[kind+"."+e.Sel.Name] = true
			}
		case *ast.CompositeLit:
			if t := pass.Info.TypeOf(e); t != nil && isNamedOrPtr(t, named) {
				for _, elt := range e.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							refs[kind+"."+id.Name] = true
						}
					}
				}
			}
		}
		return true
	})
}

// isNamedOrPtr reports whether t is the named type or a pointer to it.
func isNamedOrPtr(t types.Type, named *types.Named) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj() == named.Obj()
}
