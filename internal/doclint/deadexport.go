package doclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"strings"
)

// use records where a name is referred to from.
type use struct{ prod, test bool }

// mark records one reference, from a _test.go file or not.
func (u *use) mark(test bool) {
	if test {
		u.test = true
	} else {
		u.prod = true
	}
}

// checkDeadExports is the cut list's standing check (ROADMAP aim 2), two
// rules over one syntactic pass.
//
// Dead exports: every exported function, method, type, constant and
// variable declared under root/internal that no Go file outside its own
// package directory refers to. Every other Go file of the tree is a
// referrer: cmd/, examples/, the root benchmarks, the nested bench/
// module and the other packages' tests. A type that another exported
// declaration of its package names — in a signature, a field, a
// variable's type — is that declaration's API and stays exported with
// it, and the names of one parenthesised const or var group — an
// enumeration — live or die together.
//
// Test-only code: every other package-level function, method and type
// declared in a non-test file under root/internal or root/cmd — the
// unexported ones, which only their own package can reach — that no
// non-test file refers to: code the product carries for its tests alone,
// which belongs in a _test.go file or nowhere. (An exported name that
// only other packages' tests use — a field with a closed-form solution,
// a fault hook — is test support by design and the first rule's
// business.) A reference from inside the declaration itself (recursion, a
// type's own methods) does not count; main and init are referred to by
// the runtime; a method nothing selects is left alone, because interfaces
// and fmt call methods without naming them. internal/doclint and
// internal/invlint are exempt: they are linters that run as tests, and
// their entry points are those tests' subject, not their helpers.
//
// The check is syntactic: a package-level name is referred to by any
// identifier of that name in its own directory and by `pkg.Name`
// elsewhere, pkg being the package's directory name (the tree renames no
// import, and one that did would be reported, not missed), a method by
// any `x.Name` selector, so a method shares its liveness with its
// namesakes; struct fields and interface methods are not examined.
func checkDeadExports(root string) ([]finding, error) {
	type decl struct {
		dir, pkg, name string
		kind           byte      // 'f'unction, 'm'ethod, 't'ype or 'v'alue
		api            bool      // exported under internal/: the dead-export rule applies
		group          token.Pos // the enclosing const/var group's parenthesis, if any
		pos            token.Position
	}
	var decls []decl
	named := map[string]bool{}               // "pkg.Name": selected from another package, or exposed in its own
	local := map[string]*use{}               // "dir.Name": an identifier of that name in the directory
	selected := map[string]map[string]*use{} // selector name -> directories selecting it
	at := func(m map[string]*use, key string) *use {
		if m[key] == nil {
			m[key] = &use{}
		}
		return m[key]
	}
	err := walkGo(root, true, parser.SkipObjectResolution, func(dir string, fset *token.FileSet, file *ast.File) {
		pkg := path.Base(dir)
		test := strings.HasSuffix(fset.Position(file.Package).Filename, "_test.go")
		internal := strings.HasPrefix(dir, "internal/")
		declares := !test && (internal || strings.HasPrefix(dir, "cmd/"))
		// add declares id; the names in an exported declaration's type are exposed.
		add := func(id *ast.Ident, kind byte, api bool, typ ast.Node, group token.Pos) {
			if !declares {
				return
			}
			api = api && internal && id.IsExported()
			decls = append(decls, decl{dir: dir, pkg: pkg, name: id.Name, kind: kind, api: api, group: group, pos: fset.Position(id.Pos())})
			if !api || typ == nil {
				return
			}
			ast.Inspect(typ, func(n ast.Node) bool {
				if used, ok := n.(*ast.Ident); ok && used.Name != id.Name {
					named[pkg+"."+used.Name] = true
				}
				return true
			})
		}
		// refer records every reference under n; own is the package-level
		// name n declares or belongs to, which n cannot keep alive.
		refer := func(n ast.Node, own string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if n.Name != own {
						at(local, dir+"."+n.Name).mark(test)
					}
				case *ast.SelectorExpr:
					if selected[n.Sel.Name] == nil {
						selected[n.Sel.Name] = map[string]*use{}
					}
					at(selected[n.Sel.Name], dir).mark(test)
					if x, ok := n.X.(*ast.Ident); ok && x.Name != pkg {
						named[x.Name+"."+n.Sel.Name] = true
					}
				}
				return true
			})
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				own := d.Name.Name
				if base := receiverBase(d.Recv); base != nil {
					own = base.Name
					add(d.Name, 'm', base.IsExported(), d.Type, token.NoPos)
				} else {
					add(d.Name, 'f', true, d.Type, token.NoPos)
				}
				refer(d, own)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, 't', true, s.Type, token.NoPos)
						refer(s, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, 'v', true, s.Type, d.Lparen)
						}
						refer(s, "")
					}
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// live: the dead-export rule's liveness, a reference from outside d's directory.
	live := func(d decl) bool {
		if d.kind != 'm' {
			return named[d.pkg+"."+d.name]
		}
		for from := range selected[d.name] {
			if from != d.dir {
				return true
			}
		}
		return false
	}
	// uses: the test-only rule's references to d, which no other package can name.
	uses := func(d decl) (u use) {
		if d.kind != 'm' {
			if m := local[d.dir+"."+d.name]; m != nil {
				u = *m
			}
			return u
		}
		for _, m := range selected[d.name] {
			u.prod, u.test = u.prod || m.prod, u.test || m.test
		}
		return u
	}
	liveGroups := map[token.Pos]bool{}
	for _, d := range decls {
		if d.group.IsValid() && live(d) {
			liveGroups[d.group] = true
		}
	}
	var findings []finding
	for _, d := range decls {
		what := ""
		switch u := uses(d); {
		case d.api:
			if !live(d) && !liveGroups[d.group] {
				what = fmt.Sprintf("exported %s has no reference outside %s: un-export or delete it", d.name, d.dir)
			}
		case d.kind == 'v' || d.dir == "internal/doclint" || d.dir == "internal/invlint" || u.prod:
		case u.test || d.kind != 'm' && d.name != "main" && d.name != "init":
			what = fmt.Sprintf("test-only %s has no reference in a non-test file: delete it, or move it into a _test.go file", d.name)
		}
		if what != "" {
			findings = append(findings, finding{Pos: fmt.Sprintf("%s:%d", d.pos.Filename, d.pos.Line), What: what})
		}
	}
	return findings, nil
}
