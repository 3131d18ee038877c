package invlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The corpus loader: loadTestdata type-checks an analysistest-style
// corpus rooted at testdata/<case>/src, resolving in-corpus imports from
// source and everything else through `go list -export`.

// listJSON is the subset of `go list -json` output the loaders consume.
type listJSON struct {
	ImportPath string
	Export     string
	// Dir and GoFiles locate the package's non-test sources.
	Dir     string
	GoFiles []string
	// Deps lists every package the package imports, directly or not.
	Deps []string
	// DepOnly marks a package listed only as a dependency of a match.
	DepOnly bool
}

// goList runs `go list -export -deps -json` on the given patterns and
// parses the concatenated JSON documents it emits.
func goList(patterns ...string) ([]listJSON, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,Dir,GoFiles,Deps,DepOnly"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("invlint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listJSON
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
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

// exportCache maps import paths to export-data files, lazily populated
// by `go list -export`. One is shared by every corpus (stdCache), so a
// missing import costs one `go list` harvest per test binary.
type exportCache struct {
	mu    sync.Mutex
	files map[string]string
}

// lookup returns a reader over the export data for path, running
// `go list -export` on a miss. It has the signature go/importer's gc
// lookup wants.
func (c *exportCache) lookup(path string) (io.ReadCloser, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		pkgs, err := goList(path)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				c.files[p.ImportPath] = p.Export
			}
		}
		if f, ok = c.files[path]; !ok {
			return nil, fmt.Errorf("invlint: no export data for %q", path)
		}
	}
	return os.Open(f)
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
func loadTestdataDir(ti *testdataImporter, path, dir string) (*unit, error) {
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
func loadTestdata(root, path string) (*unit, error) {
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

// wantRe extracts the quoted regexes of a `// want "re1" "re2"` comment,
// the analysistest expectation syntax.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` mark: a diagnostic regexp expected on a
// specific line of a corpus file.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants scans the unit's files for `// want` comments. A mark on
// line L expects a diagnostic on L (the analysistest convention).
func collectWants(t *testing.T, u *unit) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				groups := wantRe.FindAllStringSubmatch(c.Text[i:], -1)
				if len(groups) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, g := range groups {
					re, err := regexp.Compile(g[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, g[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runCorpus loads each named package from testdata/<root>/src, runs the
// analyzers over it, and checks the diagnostics against the corpus's
// `// want` marks: every mark must match exactly one diagnostic on its
// line, and every diagnostic must be claimed by a mark.
func runCorpus(t *testing.T, root string, analyzers []*Analyzer, pkgPaths ...string) {
	t.Helper()
	var diags []Diagnostic
	var wants []*expectation
	for _, path := range pkgPaths {
		u, err := loadTestdata("testdata/"+root, path)
		if err != nil {
			t.Fatalf("loading corpus %s/%s: %v", root, path, err)
		}
		diags = append(diags, runUnit(u, analyzers)...)
		wants = append(wants, collectWants(t, u)...)
	}
	for _, d := range diags {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// TestCorpora drives every analyzer over its flagging and clean corpora.
func TestCorpora(t *testing.T) {
	cases := []struct {
		root      string
		analyzers []*Analyzer
		pkgs      []string
	}{
		{"det_bad", []*Analyzer{detLint}, []string{"repro/internal/seeds"}},
		{"det_good", []*Analyzer{detLint}, []string{"repro/internal/seeds", "example.com/other"}},
		{"simtime_bad", []*Analyzer{simTime}, []string{"repro/internal/core"}},
		{"simtime_good", []*Analyzer{simTime}, []string{"repro/internal/core"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.root, func(t *testing.T) {
			t.Parallel()
			runCorpus(t, c.root, c.analyzers, c.pkgs...)
		})
	}
}

// TestDiagnosticString pins the vet-style rendering used in error output.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "detlint", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got, want := d.String(), "x.go:3:7: boom (detlint)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
