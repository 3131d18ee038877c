// The detlint analyzer: the deterministic packages — everything a
// simulated run's result can depend on — must be pure functions of
// their inputs. Three hazard classes are rejected:
//
//  1. Wall-clock reads (time.Now, time.Since, time.Sleep, ...): any
//     real-time dependence makes a run irreproducible and poisons the
//     experiments.Key result cache, whose hits are exact only because
//     runs are bit-identical.
//  2. The global math/rand source (rand.Intn, rand.Shuffle, ...): the
//     shared process-wide source is mutated by every caller, so results
//     depend on what else ran. Seeded rand.New(rand.NewSource(n))
//     generators are fine and are what the tree uses.
//  3. Map iteration whose order escapes: a `range` over a map whose
//     body appends to a slice, sends on a channel, writes rendered
//     output, or feeds a digest makes Go's randomized iteration order
//     observable — the exact failure that would silently move golden
//     SHA-256 digests. The one sanctioned idiom, collect-then-sort, is
//     recognized: an append whose slice is passed to sort/slices
//     ordering later in the same function is not flagged.
package invlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallClockFuncs are the package time functions that read or wait on
// the OS clock. Duration arithmetic (time.Duration, time.Unix) is fine;
// observing "now" is not.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// globalRandExempt are the math/rand package functions that do NOT
// touch the global source: constructors for explicitly seeded
// generators.
var globalRandExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// detLint rejects wall-clock reads, global math/rand use and
// order-leaking map iteration in the deterministic packages.
var detLint = &Analyzer{Name: "detlint", Run: runDetLint}

// runDetLint checks one of the module's packages; code outside the
// module never feeds a simulated run. Which module packages must be
// deterministic is the caller's choice: TestTreeHoldsContract derives
// them from internal/experiments' imports. Test files are exempt (they
// assert determinism rather than produce results).
func runDetLint(pass *Pass) {
	if !strings.HasPrefix(pass.Pkg.Path(), "repro/") {
		return
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			detCheckCalls(pass, fd.Body)
			detCheckMapRanges(pass, fd.Body)
		}
	}
}

// detCheckCalls flags wall-clock and global-rand calls anywhere in
// body, including nested function literals.
func detCheckCalls(pass *Pass, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Signature().Recv() != nil {
			return true
		}
		switch funcPkgPath(fn) {
		case "time":
			if wallClockFuncs[fn.Name()] {
				pass.reportf(call.Pos(), "call to time.%s: deterministic packages must not observe wall-clock time (use virtual sim time)", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !globalRandExempt[fn.Name()] {
				pass.reportf(call.Pos(), "call to global rand.%s: deterministic packages must use an explicitly seeded rand.New(rand.NewSource(seed))", fn.Name())
			}
		}
		return true
	})
}

// detCheckMapRanges walks body looking for range-over-map statements
// whose bodies leak iteration order.
func detCheckMapRanges(pass *Pass, body ast.Node) {
	// Track each map range's enclosing function body so the
	// collect-then-sort idiom can look past the loop's end.
	var walk func(n ast.Node, encl ast.Node)
	walk = func(n ast.Node, encl ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch stmt := m.(type) {
			case *ast.FuncLit:
				walk(stmt.Body, stmt.Body)
				return false
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(stmt.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						detCheckMapBody(pass, stmt, encl)
					}
				}
			}
			return true
		})
	}
	walk(body, body)
}

// detCheckMapBody flags the order-leaking operations inside one
// range-over-map body.
func detCheckMapBody(pass *Pass, rng *ast.RangeStmt, enclosing ast.Node) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.SendStmt:
			pass.reportf(stmt.Pos(), "channel send inside range over map: iteration order becomes observable")
		case *ast.AssignStmt:
			for i, rhs := range stmt.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isAppendCall(pass.Info, call) {
					continue
				}
				target := appendTarget(pass.Info, stmt, i, call)
				if target != nil && sortedAfter(pass, target, rng, enclosing) {
					continue // collect-then-sort: order cannot escape
				}
				pass.reportf(call.Pos(), "append inside range over map: slice order depends on map iteration (sort the keys first, or sort the result before use)")
			}
		case *ast.CallExpr:
			detCheckMapBodyCall(pass, stmt)
		}
		return true
	})
}

// detCheckMapBodyCall flags output- and digest-feeding calls inside a
// map-range body.
func detCheckMapBodyCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return
	}
	name := fn.Name()
	if fn.Signature().Recv() == nil {
		// Package-level ordered-output writers.
		if funcPkgPath(fn) == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
			pass.reportf(call.Pos(), "fmt.%s inside range over map: output order depends on map iteration", name)
		}
		return
	}
	isWriteName := name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune" || name == "Sum"
	if !isWriteName {
		return
	}
	// Classify by the static type of the receiver expression, not the
	// method's declared receiver: sha256.New() yields a hash.Hash whose
	// Write is declared on the embedded io.Writer, and the expression
	// type is what names the digest.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgPath, typeName, ok := namedTypePath(pass.Info.TypeOf(sel.X))
	if !ok {
		return
	}
	switch {
	case strings.HasPrefix(pkgPath, "crypto/") || pkgPath == "hash" || strings.HasPrefix(pkgPath, "hash/"):
		pass.reportf(call.Pos(), "feeding a digest (%s.%s.%s) inside range over map: the hash depends on map iteration order", pkgPath, typeName, name)
	case pkgPath == "strings" && typeName == "Builder",
		pkgPath == "bytes" && typeName == "Buffer",
		pkgPath == "bufio" && typeName == "Writer":
		pass.reportf(call.Pos(), "writing ordered output (%s.%s.%s) inside range over map: rendered order depends on map iteration", pkgPath, typeName, name)
	case pkgPath == "io":
		pass.reportf(call.Pos(), "writing to an %s.%s inside range over map: write order depends on map iteration (and may feed a digest)", pkgPath, typeName)
	}
}

// isAppendCall reports whether call is the append builtin.
func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTarget resolves the variable receiving an append's result
// (x = append(x, ...)), preferring the assignment's LHS, falling back
// to the appended slice itself (covers `return append(...)`-free forms
// only; a nil return means the idiom check cannot apply).
func appendTarget(info *types.Info, assign *ast.AssignStmt, i int, call *ast.CallExpr) types.Object {
	if i < len(assign.Lhs) {
		if id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				return obj
			}
		}
	}
	if len(call.Args) > 0 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			return info.ObjectOf(id)
		}
	}
	return nil
}

// sortOrderingFuncs are the sort/slices entry points that impose a
// deterministic order on their first argument.
var sortOrderingFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether target is passed to a sort/slices
// ordering function after the range statement, within the enclosing
// function body — the sanctioned collect-then-sort idiom.
func sortedAfter(pass *Pass, target types.Object, rng *ast.RangeStmt, enclosing ast.Node) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Signature().Recv() != nil {
			return true
		}
		byName, ok := sortOrderingFuncs[funcPkgPath(fn)]
		if !ok || !byName[fn.Name()] {
			return true
		}
		for _, arg := range call.Args {
			if id, isIdent := ast.Unparen(arg).(*ast.Ident); isIdent && pass.Info.ObjectOf(id) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
