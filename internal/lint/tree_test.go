package lint

import (
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// experimentsPath is the campaign package: every simulated result the
// repository reports is computed by it or by a package it imports.
const experimentsPath = "repro/internal/experiments"

// TestTreeHoldsContract proves the determinism contract on the module
// itself (DESIGN.md §10). It runs simtime on every package `go list
// repro/...` returns, and detlint on internal/experiments and every
// module package it imports, directly or not: the set is derived from
// the listing, so a package the campaign comes to import is covered
// without an edit here. Each package is type-checked from its non-test
// sources (the checks skip test files) against its dependencies'
// export data.
func TestTreeHoldsContract(t *testing.T) {
	pkgs, err := goList("repro/...")
	if err != nil {
		t.Fatal(err)
	}
	exports := make(map[string]string)
	det := make(map[string]bool)
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
		if p.ImportPath == experimentsPath {
			det[p.ImportPath] = true
			for _, d := range p.Deps {
				if strings.HasPrefix(d, "repro/") {
					det[d] = true
				}
			}
		}
	}
	if !det[experimentsPath] {
		t.Fatalf("go list repro/... did not list %s", experimentsPath)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	checked := 0
	var detSet []string
	for _, p := range pkgs {
		if p.DepOnly {
			continue
		}
		files, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			t.Fatal(err)
		}
		u, err := checkUnit(fset, p.ImportPath, files, imp)
		if err != nil {
			t.Fatal(err)
		}
		found := simtime(u)
		if det[p.ImportPath] {
			found = append(detlint(u), found...)
			detSet = append(detSet, p.ImportPath)
		}
		for _, f := range found {
			t.Error(f)
		}
		checked++
	}
	sort.Strings(detSet)
	t.Logf("simtime on %d packages; detlint on %d: %s", checked, len(detSet), strings.Join(detSet, " "))
}
