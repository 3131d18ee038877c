// Package loading for the analyzers: three ways to obtain a
// type-checked Unit, all built on the standard library.
//
//   - LoadPatterns shells out to `go list -export` and type-checks each
//     matched package from source against the build cache's export data
//     (the slvet standalone mode).
//   - RunVetConfig speaks the `go vet -vettool` unitchecker protocol:
//     cmd/go hands the tool a JSON config naming the files and the
//     export data of every dependency (see unitchecker.go).
//   - loadTestdata type-checks an analysistest-style corpus rooted at
//     testdata/<case>/src, resolving in-corpus imports from source and
//     everything else through the export-data importer.
package invlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
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

// exportCache maps import paths to export-data files, lazily populated
// by `go list -export`. It is shared process-wide: analyzing many units
// (or many testdata corpora) reuses one `go list` harvest per missing
// import instead of re-listing per unit.
type exportCache struct {
	mu    sync.Mutex
	dir   string // working directory for go list (module root or "")
	files map[string]string
}

// listJSON is the subset of `go list -json` output the loaders consume.
type listJSON struct {
	ImportPath  string
	Dir         string
	Export      string
	GoFiles     []string
	TestGoFiles []string
	DepOnly     bool
	Standard    bool
	Name        string
}

// decodeList parses the concatenated JSON documents go list emits.
func decodeList(data []byte) ([]listJSON, error) {
	var pkgs []listJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var p listJSON
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				return pkgs, nil
			}
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// goList runs `go list -export -deps -json` on the given patterns.
func goList(dir string, patterns ...string) ([]listJSON, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,DepOnly,Standard,Name"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("invlint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	return decodeList(out)
}

// add records the export files of pkgs.
func (c *exportCache) add(pkgs []listJSON) {
	for _, p := range pkgs {
		if p.Export != "" {
			c.files[p.ImportPath] = p.Export
		}
	}
}

// lookup returns a reader over the export data for path, running
// `go list -export` on a miss. It has the signature go/importer's gc
// lookup wants.
func (c *exportCache) lookup(path string) (io.ReadCloser, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		pkgs, err := goList(c.dir, path)
		if err != nil {
			return nil, err
		}
		c.add(pkgs)
		if f, ok = c.files[path]; !ok {
			return nil, fmt.Errorf("invlint: no export data for %q", path)
		}
	}
	return os.Open(f)
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

// checkUnit type-checks files into a Unit using imp for imports.
func checkUnit(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Unit, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("invlint: type-checking %s: %w", path, err)
	}
	return &Unit{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// LoadPatterns loads every package matched by the go list patterns
// (e.g. "./...") as analyzable units, type-checked from source with
// dependencies resolved through the build cache's export data. Each
// unit includes the package's in-package test files, so test-facing
// invariants (metriccol's "every counter has a test") are checked too.
func LoadPatterns(dir string, patterns ...string) ([]*Unit, error) {
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	cache := &exportCache{dir: dir, files: make(map[string]string)}
	cache.add(pkgs)

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", cache.lookup)

	var units []*Unit
	for _, p := range pkgs {
		if p.DepOnly || p.Standard {
			continue
		}
		names := append(append([]string{}, p.GoFiles...), p.TestGoFiles...)
		if len(names) == 0 {
			continue
		}
		files, err := parseFiles(fset, p.Dir, names)
		if err != nil {
			return nil, err
		}
		u, err := checkUnit(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// testdataImporter resolves imports for a corpus: paths present under
// root are type-checked from source (recursively); everything else
// falls through to the export-data importer, so corpora can import both
// fake in-corpus packages (a stub repro/internal/sim, say) and the real
// standard library.
type testdataImporter struct {
	root     string
	fset     *token.FileSet
	std      types.Importer
	packages map[string]*types.Package
}

// Import implements types.Importer.
func (ti *testdataImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.packages[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(ti.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return ti.std.Import(path)
	}
	u, err := loadTestdataDir(ti, path, dir)
	if err != nil {
		return nil, err
	}
	ti.packages[path] = u.Pkg
	return u.Pkg, nil
}

// loadTestdataDir parses and type-checks one corpus directory.
func loadTestdataDir(ti *testdataImporter, path, dir string) (*Unit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("invlint: no Go files in corpus %s", dir)
	}
	files, err := parseFiles(ti.fset, dir, names)
	if err != nil {
		return nil, err
	}
	return checkUnit(ti.fset, path, files, ti)
}

// stdCache backs every testdata importer with one process-wide export
// harvest (module-independent: corpora import only the standard
// library through it).
var stdCache = &exportCache{files: make(map[string]string)}

// loadTestdata loads the corpus package rooted at root/src/<path> (the
// analysistest testdata layout). Corpus-internal imports resolve from
// source under root/src; all others through `go list -export`.
func loadTestdata(root, path string) (*Unit, error) {
	fset := token.NewFileSet()
	ti := &testdataImporter{
		root:     filepath.Join(root, "src"),
		fset:     fset,
		std:      importer.ForCompiler(fset, "gc", stdCache.lookup),
		packages: make(map[string]*types.Package),
	}
	dir := filepath.Join(ti.root, filepath.FromSlash(path))
	return loadTestdataDir(ti, path, dir)
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
