package doclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"strings"
)

// checkDeadExports reports every exported function, method, type,
// constant and variable declared under root/internal that no Go file
// outside its own package directory refers to — the cut list's standing
// check (ROADMAP aim 2). Every other Go file of the tree is a referrer:
// cmd/, examples/, the root benchmarks, the nested bench/ module and the
// other packages' tests. The check is syntactic: a package-level name is
// referred to by `pkg.Name`, pkg being the package's directory name (the
// tree renames no import, and one that did would be reported, not
// missed), a method by any `x.Name` selector, so a method shares its
// liveness with its namesakes; struct fields and interface methods are
// not examined. A type that another exported declaration of its package
// names — in a signature, a field, a variable's type — is that
// declaration's API and stays exported with it, and the names of one
// parenthesised const or var group — an enumeration — live or die
// together.
func checkDeadExports(root string) ([]finding, error) {
	type decl struct {
		dir, pkg, name string
		method         bool
		group          token.Pos // the enclosing const/var group's parenthesis, if any
		pos            token.Position
	}
	var decls []decl
	named := map[string]bool{}               // "pkg.Name": selected from another package, or exposed in its own
	selected := map[string]map[string]bool{} // selector name -> directories selecting it
	err := walkGo(root, true, parser.SkipObjectResolution, func(dir string, fset *token.FileSet, file *ast.File) {
		pkg := path.Base(dir)
		if strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(fset.Position(file.Package).Filename, "_test.go") {
			// add declares id; the names in its declaration's type are exposed.
			add := func(id *ast.Ident, method bool, typ ast.Node, group token.Pos) {
				if !id.IsExported() {
					return
				}
				decls = append(decls, decl{dir: dir, pkg: pkg, name: id.Name, method: method, group: group, pos: fset.Position(id.Pos())})
				if typ == nil {
					return
				}
				ast.Inspect(typ, func(n ast.Node) bool {
					if used, ok := n.(*ast.Ident); ok && used.Name != id.Name {
						named[pkg+"."+used.Name] = true
					}
					return true
				})
			}
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil || receiverExported(d.Recv) {
						add(d.Name, d.Recv != nil, d.Type, token.NoPos)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, false, s.Type, token.NoPos)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, false, s.Type, d.Lparen)
							}
						}
					}
				}
			}
		}

		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if selected[sel.Sel.Name] == nil {
				selected[sel.Sel.Name] = map[string]bool{}
			}
			selected[sel.Sel.Name][dir] = true
			if x, ok := sel.X.(*ast.Ident); ok && x.Name != pkg {
				named[x.Name+"."+sel.Sel.Name] = true
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}

	live := func(d decl) bool {
		if !d.method {
			return named[d.pkg+"."+d.name]
		}
		for from := range selected[d.name] {
			if from != d.dir {
				return true
			}
		}
		return false
	}
	liveGroups := map[token.Pos]bool{}
	for _, d := range decls {
		if d.group.IsValid() && live(d) {
			liveGroups[d.group] = true
		}
	}
	var findings []finding
	for _, d := range decls {
		if !live(d) && !liveGroups[d.group] {
			findings = append(findings, finding{
				Pos:  fmt.Sprintf("%s:%d", d.pos.Filename, d.pos.Line),
				What: fmt.Sprintf("exported %s has no reference outside %s: un-export or delete it", d.name, d.dir),
			})
		}
	}
	return findings, nil
}
