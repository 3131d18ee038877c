// Package loading for the analyzers: what the two test loaders share.
// TestTreeHoldsContract type-checks the module's packages against their
// dependencies' export data; the corpus loader (analysistest_test.go)
// type-checks testdata/<case>/src from source.
package invlint

import (
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

// parseFiles parses the files named relative to dir into fset.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
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
