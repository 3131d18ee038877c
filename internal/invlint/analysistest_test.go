package invlint

import (
	"regexp"
	"strings"
	"testing"
)

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
func collectWants(t *testing.T, u *Unit) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Both `// want "..."` and `/* want "..." */` forms are
				// accepted; the block form marks lines whose trailing line
				// comment is itself under test (lint:allow).
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					i = strings.Index(c.Text, "/* want ")
				}
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
		ds, err := RunUnit(u, analyzers)
		if err != nil {
			t.Fatalf("running analyzers on %s/%s: %v", root, path, err)
		}
		diags = append(diags, ds...)
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
		{"keyaxis_bad", []*Analyzer{keyAxis}, []string{"repro/internal/experiments", "repro/cmd/badtool"}},
		{"keyaxis_good", []*Analyzer{keyAxis}, []string{"repro/internal/experiments", "repro/cmd/goodtool"}},
		{"metriccol_bad", []*Analyzer{metricCol}, []string{"repro/internal/metrics"}},
		{"metriccol_good", []*Analyzer{metricCol}, []string{"repro/internal/metrics"}},
		{"allow", []*Analyzer{detLint}, []string{"repro/internal/seeds"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.root, func(t *testing.T) {
			t.Parallel()
			runCorpus(t, c.root, c.analyzers, c.pkgs...)
		})
	}
}

// TestAnalyzersRegistered pins the suite: four analyzers, resolvable by
// name, each documented.
func TestAnalyzersRegistered(t *testing.T) {
	all := Analyzers()
	if len(all) != 4 {
		t.Fatalf("suite has %d analyzers, want 4", len(all))
	}
	for _, a := range all {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		got, ok := AnalyzerByName(a.Name)
		if !ok || got != a {
			t.Errorf("AnalyzerByName(%q) = %v, %v", a.Name, got, ok)
		}
	}
	if _, ok := AnalyzerByName("nope"); ok {
		t.Error("AnalyzerByName accepted an unknown name")
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

// TestLoadPatternsSelf loads this package through the standalone loader
// and checks the unit includes its test files (metriccol relies on
// that).
func TestLoadPatternsSelf(t *testing.T) {
	units, err := LoadPatterns("", "repro/internal/invlint")
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("got %d units, want 1", len(units))
	}
	u := units[0]
	if u.Pkg.Path() != "repro/internal/invlint" {
		t.Errorf("loaded %q", u.Pkg.Path())
	}
	hasTest := false
	for _, f := range u.Files {
		if isTestFile(u.Fset, f) {
			hasTest = true
		}
	}
	if !hasTest {
		t.Error("unit is missing in-package test files")
	}
	// The suite over its own loader's output must be clean.
	diags, err := RunUnit(u, Analyzers())
	if err != nil {
		t.Fatalf("RunUnit: %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("unexpected findings on invlint itself: %v", diags)
	}
}

// TestFormatDiagnostics checks path relativization against the invoking
// directory.
func TestFormatDiagnostics(t *testing.T) {
	var d Diagnostic
	d.Analyzer = "simtime"
	d.Message = "m"
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "/a/b/c.go", 1, 2
	if got := FormatDiagnostics("/a", []Diagnostic{d}); got != "b/c.go:1:2: m (simtime)\n" {
		t.Errorf("relative: %q", got)
	}
	if got := FormatDiagnostics("/zzz", []Diagnostic{d}); got != "/a/b/c.go:1:2: m (simtime)\n" {
		t.Errorf("escaping rel paths must stay absolute: %q", got)
	}
}
