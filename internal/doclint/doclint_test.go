package doclint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot locates the module root from this package's directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Clean(filepath.Join(dir, "..", ".."))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}

// TestGodocCoverage is the godoc audit (ISSUE 2): every exported symbol
// under internal/... and cmd/... must carry a doc comment. Run in CI, a
// missing comment fails the build.
func TestGodocCoverage(t *testing.T) {
	root := repoRoot(t)
	for _, tree := range []string{"internal", "cmd"} {
		findings, err := checkDir(filepath.Join(root, tree))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}

// TestPackageComments requires a package doc comment on every package
// under internal/ and cmd/, and on the repository root package.
func TestPackageComments(t *testing.T) {
	root := repoRoot(t)
	for _, tree := range []string{"internal", "cmd", "examples"} {
		findings, err := checkPackageComments(filepath.Join(root, tree))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}

// TestMarkdownLinks guards the documentation overhaul: every relative
// link in the top-level markdown files and the examples index must
// resolve, so renames and deletions cannot silently rot the docs.
func TestMarkdownLinks(t *testing.T) {
	root := repoRoot(t)
	files := []string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "DESIGN.md"),
		filepath.Join(root, "CHANGES.md"),
		filepath.Join(root, "ROADMAP.md"),
		filepath.Join(root, "examples", "README.md"),
	}
	findings, err := checkMarkdownLinks(files...)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestChangelogOrder pins the CHANGES.md layout: one `- PR <n>: ...`
// entry per line, PR numbers strictly increasing (the file was shipped
// out of order once — 7, 5, 4, 3, 2, 1, 6, 8, 9 — and this keeps it
// from regressing).
func TestChangelogOrder(t *testing.T) {
	findings, err := checkChangelogOrder(filepath.Join(repoRoot(t), "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestChangelogCheckerCatchesDisorder proves the changelog lint bites:
// out-of-order, duplicate and malformed entries are findings; blank
// lines are not.
func TestChangelogCheckerCatchesDisorder(t *testing.T) {
	dir := t.TempDir()
	write := func(content string) string {
		t.Helper()
		path := filepath.Join(dir, "CHANGES.md")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name    string
		content string
		want    int
	}{
		{"sorted", "- PR 1: a\n- PR 2: b\n\n- PR 10: c\n", 0},
		{"out of order", "- PR 2: b\n- PR 1: a\n", 1},
		{"duplicate", "- PR 3: a\n- PR 3: b\n", 1},
		{"not an entry", "- PR 1: a\nsome prose\n", 1},
		{"missing text", "- PR 1: \n", 1},
		{"lexicographic trap", "- PR 9: a\n- PR 10: b\n", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			findings, err := checkChangelogOrder(write(tc.content))
			if err != nil {
				t.Fatal(err)
			}
			if len(findings) != tc.want {
				t.Fatalf("got %d findings, want %d: %v", len(findings), tc.want, findings)
			}
		})
	}
	if _, err := checkChangelogOrder(filepath.Join(dir, "absent.md")); err == nil {
		t.Error("missing file should be an error, not a pass")
	}
}

// TestCheckerCatchesViolations proves the lint actually bites, using a
// synthetic package with documented and undocumented symbols.
func TestCheckerCatchesViolations(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

// Documented is fine.
func Documented() {}

func Undocumented() {}

type Bad struct{}

// Good is fine.
type Good struct{}

const Naked = 1

// Grouped constants share one comment.
const (
	A = 1
	B = 2
)
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("findings = %d, want 3 (Undocumented, Bad, Naked): %v", len(findings), findings)
	}
	pkgFindings, err := checkPackageComments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgFindings) != 1 {
		t.Fatalf("package findings = %d, want 1: %v", len(pkgFindings), pkgFindings)
	}
}

// TestLinkCheckerCatchesBrokenLinks proves the markdown checker bites.
func TestLinkCheckerCatchesBrokenLinks(t *testing.T) {
	dir := t.TempDir()
	md := filepath.Join(dir, "doc.md")
	content := "# My Sec\n\n[ok](doc.md) [gone](missing.md) [web](https://example.com) [frag](#my-sec)\n"
	if err := os.WriteFile(md, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkMarkdownLinks(md)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1 (missing.md): %v", len(findings), findings)
	}
}

// TestAnchorValidation proves fragment links are checked against real
// headings, intra-document and across files.
func TestAnchorValidation(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target.md")
	targetContent := "# Guide\n\n## §3 Known Limits\n\n## Dup\n\n## Dup\n\n```sh\n# not a heading\n```\n"
	if err := os.WriteFile(target, []byte(targetContent), 0o644); err != nil {
		t.Fatal(err)
	}
	md := filepath.Join(dir, "doc.md")
	content := "# Top\n\n" +
		"[good](#top) [bad](#nope)\n" +
		"[xgood](target.md#3-known-limits) [xbad](target.md#missing)\n" +
		"[dup1](target.md#dup) [dup2](target.md#dup-1) [dup3](target.md#dup-2)\n" +
		"[fenced](target.md#not-a-heading)\n"
	if err := os.WriteFile(md, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkMarkdownLinks(md)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: #nope, target.md#missing, target.md#dup-2 (only two Dup
	// headings exist), target.md#not-a-heading (inside a code fence).
	if len(findings) != 4 {
		t.Fatalf("findings = %d, want 4: %v", len(findings), findings)
	}
	for _, f := range findings {
		t.Log(f)
	}
}

// TestSlugify pins the GitHub anchor algorithm on the shapes the repo's
// own headings use.
func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Quick start":            "quick-start",
		"§10 Invariants as lint": "10-invariants-as-lint",
		"I/O model":              "io-model",
		"`invlint` tooling":      "invlint-tooling",
		"Already-lower_case":     "already-lower_case",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCheckDirSkipsTestdata proves analyzer corpora are not held to the
// godoc contract.
func TestCheckDirSkipsTestdata(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "testdata", "src", "p")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package p\n\nfunc Undocumented() {}\n"
	if err := os.WriteFile(filepath.Join(sub, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("testdata not skipped by CheckDir: %v", findings)
	}
	pkgFindings, err := checkPackageComments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgFindings) != 0 {
		t.Errorf("testdata not skipped by CheckPackageComments: %v", pkgFindings)
	}
}

// designMaxKiB caps DESIGN.md at its size rounded up to the next KiB.
// The file describes the design as it stands; how it got there is
// CHANGES.md's. The cap only moves down — ROADMAP's target is 40 — so a
// change that adds a section trims one.
const designMaxKiB = 54

// TestDesignSize holds DESIGN.md under designMaxKiB.
func TestDesignSize(t *testing.T) {
	st, err := os.Stat(filepath.Join(repoRoot(t), "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > designMaxKiB<<10 {
		t.Errorf("DESIGN.md is %d bytes, over the %d KiB cap: move history to CHANGES.md, or say less", st.Size(), designMaxKiB)
	}
}

// TestDeadExports keeps the cut list empty (ROADMAP aim 2): an exported
// identifier under internal/ that nothing outside its package refers to
// is un-exported or deleted, and an unexported function, method or type
// under internal/ or cmd/ that only _test.go files refer to is deleted or
// moved into one.
func TestDeadExports(t *testing.T) {
	findings, err := checkDeadExports(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestDeadExportCheckerBites proves the dead-export lint bites, and on
// what. Exports: a name only its own package and tests use is a finding;
// a name another package selects, a type an exported signature exposes, a
// method selected anywhere else and the siblings of a live constant are
// not. Test-only code: an unexported function or method only a test
// calls, one nothing calls but itself, and a type only its own methods
// name are findings; what a non-test file refers to, main, a method
// nothing selects and an exported name another package's test uses are
// not.
func TestDeadExportCheckerBites(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"internal/a/a.go": `package a

type Exposed struct{}

type Orphan struct{}

func Used() Exposed { return Exposed{} }

func Dead() {}

func (Exposed) Called() {}

func (Exposed) Uncalled() {}

const (
	First = iota
	Second
)

const Lonely = 1

func helper() { Dead(); Exposed{}.Uncalled(); _ = Orphan{} }

func onlyTested() {}

func recursive() { recursive() }

func (Exposed) peek() {}

func (Exposed) implicit() {}

type island struct{}

func (island) String() string { return island{}.String() }

func Oracle() { helper() }
`,
		"internal/a/a_test.go": "package a\n\nfunc init() { _ = Lonely; onlyTested(); Exposed{}.peek() }\n",
		"internal/b/b_test.go": "package b\n\nimport \"m/internal/a\"\n\nvar _ = a.Oracle\n",
		"cmd/x/main.go":        "package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.Used().Called(); _ = a.Second }\n",
		"testdata/skip.go":     "package broken !",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := checkDeadExports(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, strings.Join(strings.Fields(f.What)[:2], " "))
	}
	want := "exported Orphan, exported Dead, exported Uncalled, exported Lonely, " +
		"test-only onlyTested, test-only recursive, test-only peek, test-only island"
	if strings.Join(got, ", ") != want {
		t.Errorf("findings %v, want %s", got, want)
	}
}
