// Package loading for the analyzers: what the two ways to obtain a
// type-checked unit share. RunVetConfig (unitchecker.go) speaks the
// `go vet -vettool` protocol, in which cmd/go names the files and the
// export data of every dependency; the tests' corpus loader
// (analysistest_test.go) type-checks testdata/<case>/src from source.
package invlint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
)

// newInfo allocates the types.Info maps every unit records.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// parseFiles parses the named files into fset.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkUnit type-checks files into a unit using imp for imports.
func checkUnit(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*unit, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("invlint: type-checking %s: %w", path, err)
	}
	return &unit{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// FormatDiagnostics renders diagnostics one per line, with file paths
// relative to dir when possible (matching how vet prints findings from
// the invoking directory).
func FormatDiagnostics(dir string, diags []Diagnostic) string {
	var b bytes.Buffer
	for _, d := range diags {
		pos := d.Pos
		if dir != "" {
			if rel, err := filepath.Rel(dir, pos.Filename); err == nil && !isDotDot(rel) {
				pos.Filename = rel
			}
		}
		fmt.Fprintf(&b, "%s:%d:%d: %s (%s)\n", pos.Filename, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	return b.String()
}

// isDotDot reports whether a relative path escapes its base.
func isDotDot(rel string) bool {
	return rel == ".." || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}
