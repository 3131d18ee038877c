// The detlint check: the deterministic packages — everything a
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
package lint

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

// detlint rejects wall-clock reads, global math/rand use and
// order-leaking map iteration in one of the module's packages; code
// outside the module never feeds a simulated run. Which module packages
// must be deterministic is the caller's choice: TestTreeHoldsContract
// derives them from internal/experiments' imports. Test files are exempt
// (they assert determinism rather than produce results).
func detlint(u *unit) []finding {
	if !strings.HasPrefix(u.Pkg.Path(), "repro/") {
		return nil
	}
	var found []finding
	for _, fd := range u.funcs() {
		found = append(found, detCheckCalls(u, fd.Body)...)
		found = append(found, detCheckMapRanges(u, fd.Body)...)
	}
	return found
}

// detCheckCalls flags wall-clock and global-rand calls anywhere in
// body, including nested function literals.
func detCheckCalls(u *unit, body ast.Node) (found []finding) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(u.Info, call)
		if fn == nil || fn.Signature().Recv() != nil {
			return true
		}
		switch funcPkgPath(fn) {
		case "time":
			if wallClockFuncs[fn.Name()] {
				found = append(found, u.findingAt(call.Pos(), "detlint", "call to time.%s: deterministic packages must not observe wall-clock time (use virtual sim time)", fn.Name()))
			}
		case "math/rand", "math/rand/v2":
			if !globalRandExempt[fn.Name()] {
				found = append(found, u.findingAt(call.Pos(), "detlint", "call to global rand.%s: deterministic packages must use an explicitly seeded rand.New(rand.NewSource(seed))", fn.Name()))
			}
		}
		return true
	})
	return found
}

// detCheckMapRanges walks body looking for range-over-map statements
// whose bodies leak iteration order.
func detCheckMapRanges(u *unit, body ast.Node) (found []finding) {
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
				if t := u.Info.TypeOf(stmt.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						found = append(found, detCheckMapBody(u, stmt, encl)...)
					}
				}
			}
			return true
		})
	}
	walk(body, body)
	return found
}

// detCheckMapBody flags the order-leaking operations inside one
// range-over-map body.
func detCheckMapBody(u *unit, rng *ast.RangeStmt, enclosing ast.Node) (found []finding) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.SendStmt:
			found = append(found, u.findingAt(stmt.Pos(), "detlint", "channel send inside range over map: iteration order becomes observable"))
		case *ast.AssignStmt:
			for i, rhs := range stmt.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isAppendCall(u.Info, call) {
					continue
				}
				target := appendTarget(u.Info, stmt, i, call)
				if target != nil && sortedAfter(u, target, rng, enclosing) {
					continue // collect-then-sort: order cannot escape
				}
				found = append(found, u.findingAt(call.Pos(), "detlint", "append inside range over map: slice order depends on map iteration (sort the keys first, or sort the result before use)"))
			}
		case *ast.CallExpr:
			found = append(found, detCheckMapBodyCall(u, stmt)...)
		}
		return true
	})
	return found
}

// detCheckMapBodyCall flags output- and digest-feeding calls inside a
// map-range body.
func detCheckMapBodyCall(u *unit, call *ast.CallExpr) []finding {
	fn := calleeFunc(u.Info, call)
	if fn == nil {
		return nil
	}
	name := fn.Name()
	if fn.Signature().Recv() == nil {
		// Package-level ordered-output writers.
		if funcPkgPath(fn) == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
			return []finding{u.findingAt(call.Pos(), "detlint", "fmt.%s inside range over map: output order depends on map iteration", name)}
		}
		return nil
	}
	isWriteName := name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune" || name == "Sum"
	if !isWriteName {
		return nil
	}
	// Classify by the static type of the receiver expression, not the
	// method's declared receiver: sha256.New() yields a hash.Hash whose
	// Write is declared on the embedded io.Writer, and the expression
	// type is what names the digest.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	pkgPath, typeName, ok := namedTypePath(u.Info.TypeOf(sel.X))
	if !ok {
		return nil
	}
	switch {
	case strings.HasPrefix(pkgPath, "crypto/") || pkgPath == "hash" || strings.HasPrefix(pkgPath, "hash/"):
		return []finding{u.findingAt(call.Pos(), "detlint", "feeding a digest (%s.%s.%s) inside range over map: the hash depends on map iteration order", pkgPath, typeName, name)}
	case pkgPath == "strings" && typeName == "Builder",
		pkgPath == "bytes" && typeName == "Buffer",
		pkgPath == "bufio" && typeName == "Writer":
		return []finding{u.findingAt(call.Pos(), "detlint", "writing ordered output (%s.%s.%s) inside range over map: rendered order depends on map iteration", pkgPath, typeName, name)}
	case pkgPath == "io":
		return []finding{u.findingAt(call.Pos(), "detlint", "writing to an %s.%s inside range over map: write order depends on map iteration (and may feed a digest)", pkgPath, typeName)}
	}
	return nil
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
func sortedAfter(u *unit, target types.Object, rng *ast.RangeStmt, enclosing ast.Node) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(u.Info, call)
		if fn == nil || fn.Signature().Recv() != nil {
			return true
		}
		byName, ok := sortOrderingFuncs[funcPkgPath(fn)]
		if !ok || !byName[fn.Name()] {
			return true
		}
		for _, arg := range call.Args {
			if id, isIdent := ast.Unparen(arg).(*ast.Ident); isIdent && u.Info.ObjectOf(id) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
