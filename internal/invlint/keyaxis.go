// The keyaxis analyzer: experiments.Key is the campaign's cache
// identity — results are memoized by Key, tables are labeled by Key,
// and the CLI builds Keys from flags. Adding an axis (as PR 4 did with
// Prefetch and PR 5 with Injection) therefore has to thread it through
// every consumer, and forgetting one is silent: a label that omits the
// axis renders two different cells identically; an enumerator that
// omits it can never sweep it; an execution path that ignores it caches
// two identical results under two keys — or, inverted, returns the
// wrong cached problem for a repeat request. The analyzer pins the
// contract:
//
//  1. (Key).Label must read every Key field.
//  2. (*Campaign).datasetKeys — the enumerator of every sweep, which
//     copies the machine axes of the Campaign.Cell template the CLI axis
//     flags build (AxisFlags) — must set every Key field.
//  3. Every Key field must be consumed by the execution path
//     ((*Campaign).execute, KeyMachineConfig or (*Campaign).problem):
//     an axis that only widens the cache identity is a bug.
//  4. In every package that imports experiments (command packages and
//     service packages alike), a Key composite literal must set every
//     field, in the literal or by assignment in the same function —
//     the "forgot to wire the new flag/request field" class.
//  5. The canonical wire codec (DESIGN.md §14) is held to the same
//     standard as the label and the enumerator: (Key).CanonicalJSON —
//     the cache-address encoder — must read every field (an unread
//     axis would alias distinct cells onto one digest), and ParseKey —
//     the request-decode path — must set every field (an unset axis
//     arriving from the network would silently run as its zero value).
//  6. The tape identity (DESIGN.md §12): every Key field is declared
//     curve-moving or not, and (*Campaign).problem — whose memo entry
//     holds the problem's segment tape — reads every axis that moves a
//     curve (else two problems with different lines alias one tape) and
//     no axis that does not (else identical lines are integrated once
//     per value of it).
package invlint

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// experimentsPkgPath is the import path of the campaign package.
const experimentsPkgPath = "repro/internal/experiments"

// keyContract names the experiments functions bound by rules 1–3 and 5
// and which rule they serve.
var keyContract = struct {
	label      string   // must read every field
	enumerator string   // must set every field
	consumers  []string // together must read every field
	encoder    string   // must read every field (canonical wire encoding)
	decoder    string   // must set every field (canonical wire decoding)
	problem    string   // must read every curve axis and no machine axis
	curve      []string // axes that change a streamline's curve
	machine    []string // axes that change only the machine simulating it
}{
	label:      "Label",
	enumerator: "datasetKeys",
	consumers:  []string{"execute", "KeyMachineConfig", "problem"},
	encoder:    "CanonicalJSON",
	decoder:    "ParseKey",
	problem:    "problem",
	curve:      []string{"Dataset", "Seeding", "Unsteady"},
	machine:    []string{"Alg", "Procs", "Prefetch", "Injection", "Faults"},
}

// keyAxis proves every experiments.Key axis is rendered, enumerated,
// consumed and wired.
var keyAxis = &Analyzer{
	Name: "keyaxis",
	Doc:  "every experiments.Key axis must appear in the label renderer, the key enumerator, the execution path and the CLI wiring",
	Run:  runKeyAxis,
}

func runKeyAxis(pass *Pass) error {
	if pass.Pkg.Path() == experimentsPkgPath {
		runKeyAxisContract(pass)
	} else {
		// Rule 4 binds every consumer of the Key type — command
		// packages wiring flags and service packages wiring requests
		// alike. (Inside experiments itself partial literals are
		// idiomatic: the enumerator and tests build keys around the
		// campaign's own axis fields.)
		runKeyAxisLiterals(pass)
	}
	return nil
}

// keyStruct resolves the experiments.Key struct from any package that
// can see it (the experiments package itself, or an importer).
func keyStruct(pass *Pass) (*types.Named, *types.Struct) {
	var pkg *types.Package
	if pass.Pkg.Path() == experimentsPkgPath {
		pkg = pass.Pkg
	} else {
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == experimentsPkgPath {
				pkg = imp
				break
			}
		}
	}
	if pkg == nil {
		return nil, nil
	}
	obj, ok := pkg.Scope().Lookup("Key").(*types.TypeName)
	if !ok {
		return nil, nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named, st
}

// keyFieldNames lists the exported field names of the Key struct.
func keyFieldNames(st *types.Struct) []string {
	var names []string
	for i := 0; i < st.NumFields(); i++ {
		names = append(names, st.Field(i).Name())
	}
	return names
}

// runKeyAxisContract checks rules 1–3, 5 and 6 inside the experiments
// package.
func runKeyAxisContract(pass *Pass) {
	named, st := keyStruct(pass)
	if named == nil {
		return
	}
	fields := keyFieldNames(st)

	decls := make(map[string]*ast.FuncDecl)
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[fd.Name.Name] = fd
			}
		}
	}

	if fd, ok := decls[keyContract.label]; ok {
		reads := keyFieldReads(pass, fd.Body, named)
		reportMissing(pass, fd, fields, reads,
			"Key.%s is not rendered by %s: two cells differing only in %s would print identically")
	} else {
		pass.reportf(pass.Files[0].Pos(), "keyaxis contract: no %s function found on Key", keyContract.label)
	}

	if fd, ok := decls[keyContract.enumerator]; ok {
		sets := keyFieldWrites(pass, fd.Body, named)
		reportMissing(pass, fd, fields, sets,
			"Key.%s is not set by %s: campaign sweeps can never enumerate the %s axis")
	} else {
		pass.reportf(pass.Files[0].Pos(), "keyaxis contract: no %s enumerator found", keyContract.enumerator)
	}

	if fd, ok := decls[keyContract.encoder]; ok {
		reads := keyFieldReads(pass, fd.Body, named)
		reportMissing(pass, fd, fields, reads,
			"Key.%s is not encoded by %s: two cells differing only in %s would share one cache address")
	} else {
		pass.reportf(pass.Files[0].Pos(), "keyaxis contract: no %s encoder found", keyContract.encoder)
	}

	if fd, ok := decls[keyContract.decoder]; ok {
		sets := keyFieldWrites(pass, fd.Body, named)
		reportMissing(pass, fd, fields, sets,
			"Key.%s is not decoded by %s: the axis silently zeroes on every request arriving from the wire")
	} else {
		pass.reportf(pass.Files[0].Pos(), "keyaxis contract: no %s decoder found", keyContract.decoder)
	}

	runKeyAxisTape(pass, named, fields, decls[keyContract.problem])

	consumed := make(map[string]bool)
	var present []string
	for _, name := range keyContract.consumers {
		if fd, ok := decls[name]; ok {
			present = append(present, name)
			for f := range keyFieldReads(pass, fd.Body, named) {
				consumed[f] = true
			}
		}
	}
	if len(present) == 0 {
		pass.reportf(pass.Files[0].Pos(), "keyaxis contract: none of the execution-path functions (%s) found", strings.Join(keyContract.consumers, ", "))
		return
	}
	var missing []string
	for _, f := range fields {
		if !consumed[f] {
			missing = append(missing, f)
		}
	}
	sort.Strings(missing)
	for _, f := range missing {
		pass.reportf(named.Obj().Pos(), "Key.%s is never consumed by the execution path (%s): the axis widens the cache identity without changing any run", f, strings.Join(present, "/"))
	}
}

// runKeyAxisTape checks rule 6: the declaration of every field, and the
// problem memo's reads against it.
func runKeyAxisTape(pass *Pass, named *types.Named, fields []string, problem *ast.FuncDecl) {
	if problem == nil {
		pass.reportf(pass.Files[0].Pos(), "keyaxis contract: no %s memo found", keyContract.problem)
		return
	}
	reads := keyFieldReads(pass, problem.Body, named)
	for _, f := range fields {
		curve, machine := slices.Contains(keyContract.curve, f), slices.Contains(keyContract.machine, f)
		switch {
		case curve == machine:
			pass.reportf(named.Obj().Pos(), "Key.%s is not declared in exactly one of keyContract.curve and keyContract.machine: declare whether it moves a curve", f)
		case curve && !reads[f]:
			pass.reportf(problem.Pos(), "Key.%s moves a curve but is not read by %s: problems that differ only in %s would share one segment tape", f, problem.Name.Name, f)
		case machine && reads[f]:
			pass.reportf(problem.Pos(), "Key.%s moves no curve but is read by %s: identical streamlines would be integrated once per %s", f, problem.Name.Name, f)
		}
	}
}

// reportMissing reports one diagnostic per field absent from got,
// anchored on the contract function.
func reportMissing(pass *Pass, fd *ast.FuncDecl, fields []string, got map[string]bool, format string) {
	var missing []string
	for _, f := range fields {
		if !got[f] {
			missing = append(missing, f)
		}
	}
	sort.Strings(missing)
	for _, f := range missing {
		pass.reportf(fd.Pos(), format, f, fd.Name.Name, f)
	}
}

// keyFieldReads collects the Key field names selected (read) anywhere
// in body.
func keyFieldReads(pass *Pass, body ast.Node, key *types.Named) map[string]bool {
	reads := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if t := pass.Info.TypeOf(sel.X); t != nil && isNamedOrPtr(t, key) {
			reads[sel.Sel.Name] = true
		}
		return true
	})
	return reads
}

// keyFieldWrites collects Key field names set in body, via composite
// literal keys or selector assignments.
func keyFieldWrites(pass *Pass, body ast.Node, key *types.Named) map[string]bool {
	writes := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.CompositeLit:
			if t := pass.Info.TypeOf(stmt); t != nil && isNamedOrPtr(t, key) {
				for _, elt := range stmt.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id.Name] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					if t := pass.Info.TypeOf(sel.X); t != nil && isNamedOrPtr(t, key) {
						writes[sel.Sel.Name] = true
					}
				}
			}
		}
		return true
	})
	return writes
}

// runKeyAxisLiterals checks rule 4 outside the experiments package:
// every Key composite literal must account for every axis.
func runKeyAxisLiterals(pass *Pass) {
	named, st := keyStruct(pass)
	if named == nil {
		return // package does not use experiments.Key
	}
	fields := keyFieldNames(st)
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// All fields set anywhere in the function (literal keys and
			// k.Field = ... assignments) count: the conditional-axis
			// idiom builds a base literal then assigns optional axes.
			writes := keyFieldWrites(pass, fd.Body, named)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if t := pass.Info.TypeOf(lit); t == nil || !isNamedOrPtr(t, named) {
					return true
				}
				var missing []string
				for _, f := range fields {
					if !writes[f] {
						missing = append(missing, f)
					}
				}
				if len(missing) > 0 {
					sort.Strings(missing)
					pass.reportf(lit.Pos(), "experiments.Key literal does not wire axis %s: command wiring must set every axis explicitly (zero values included)", strings.Join(missing, ", "))
				}
				return false // one finding per literal, not per nested node
			})
		}
	}
}
