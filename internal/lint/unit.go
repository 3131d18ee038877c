package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// unit is one loadable compilation unit: a parsed, type-checked package
// ready for detlint and simtime.
type unit struct {
	// Fset maps token positions of Files.
	Fset *token.FileSet
	// Files are the unit's parsed source files, including any in-package
	// test files when the unit was built with them.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds type-checking results for Files.
	Info *types.Info
}

// findingAt returns check's finding at pos, tagged with the check's name
// the way vet prints findings: "file:line:column: message (check)".
func (u *unit) findingAt(pos token.Pos, check, format string, args ...any) finding {
	return finding{Pos: u.Fset.Position(pos).String(), What: fmt.Sprintf(format, args...) + " (" + check + ")"}
}

// funcs returns the function declarations with bodies in the unit's
// non-test files: the code detlint and simtime check.
func (u *unit) funcs() []*ast.FuncDecl {
	var fds []*ast.FuncDecl
	for _, file := range u.Files {
		if isTestFile(u.Fset.Position(file.Package).Filename) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fds = append(fds, fd)
			}
		}
	}
	return fds
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method), or nil for builtins, conversions
// and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch inst := fun.(type) { // generic instantiation f[T](...), f[T, U](...)
	case *ast.IndexExpr:
		fun = ast.Unparen(inst.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(inst.X)
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
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
