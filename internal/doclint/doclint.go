// Package doclint enforces the repository's documentation contract: every
// exported symbol under internal/... and cmd/... carries a doc comment,
// every relative markdown link resolves, and CHANGES.md stays one
// strictly-increasing `- PR <n>:` entry per line. It is a revive-style
// comment lint without the external dependency: the checks run as
// ordinary tests (and therefore in CI), so documentation regressions
// fail the build.
package doclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"unicode"
)

// finding is one documentation violation.
type finding struct {
	Pos  string // file:line
	What string // human-readable description
}

// String implements fmt.Stringer.
func (f finding) String() string { return f.Pos + ": " + f.What }

// walkGo parses every .go file under root, _test.go files only when
// tests is set, and hands each to visit with the slash-separated path of
// its directory relative to root. testdata trees are skipped — analyzer
// corpora are fixtures, not API — and so are dot-directories.
func walkGo(root string, tests bool, mode parser.Mode, visit func(dir string, fset *token.FileSet, file *ast.File)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return fmt.Errorf("doclint: %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(rel), fset, file)
		return nil
	})
}

// checkDir parses every non-test .go file under root (recursively) and
// returns a finding for each exported package, type, function, method,
// constant or variable that lacks a doc comment. Grouped const/var
// declarations are satisfied by a single comment on the group.
func checkDir(root string) ([]finding, error) {
	var findings []finding
	err := walkGo(root, false, parser.ParseComments, func(_ string, fset *token.FileSet, file *ast.File) {
		findings = append(findings, checkFile(fset, file)...)
	})
	return findings, err
}

func checkFile(fset *token.FileSet, file *ast.File) []finding {
	var findings []finding
	add := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		findings = append(findings, finding{
			Pos:  fmt.Sprintf("%s:%d", p.Filename, p.Line),
			What: what,
		})
	}

	// Package comments are a per-package property (one canonical file
	// carries it), checked separately by checkPackageComments.
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					// Methods on unexported receivers never appear in
					// godoc (e.g. interface plumbing on private types),
					// matching revive's exported rule.
					if base := receiverBase(d.Recv); base == nil || !base.IsExported() {
						continue
					}
					kind = "method"
				}
				add(d.Pos(), fmt.Sprintf("exported %s %s has no doc comment", kind, d.Name.Name))
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil {
						add(s.Pos(), fmt.Sprintf("exported type %s has no doc comment", s.Name.Name))
					}
				case *ast.ValueSpec:
					if groupDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							add(s.Pos(), fmt.Sprintf("exported %s %s has no doc comment (group comments count)", d.Tok, name.Name))
							break
						}
					}
				}
			}
		}
	}
	return findings
}

// receiverBase returns the identifier of a method receiver's base type
// (pointers and generic instantiations unwrapped), nil for a function.
func receiverBase(recv *ast.FieldList) *ast.Ident {
	if recv == nil || len(recv.List) == 0 {
		return nil
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt
		default:
			return nil
		}
	}
}

// checkPackageComments reports packages under root whose files carry no
// package doc comment at all.
func checkPackageComments(root string) ([]finding, error) {
	documented := map[string]bool{}
	firstFile := map[string]string{}
	var dirs []string
	err := walkGo(root, false, parser.ParseComments|parser.PackageClauseOnly, func(dir string, fset *token.FileSet, file *ast.File) {
		if _, seen := firstFile[dir]; !seen {
			firstFile[dir] = fset.Position(file.Package).Filename
			dirs = append(dirs, dir)
		}
		documented[dir] = documented[dir] || file.Doc != nil
	})
	var findings []finding
	for _, dir := range dirs {
		if !documented[dir] {
			findings = append(findings, finding{
				Pos:  firstFile[dir] + ":1",
				What: fmt.Sprintf("package in %s has no package doc comment", filepath.Join(root, dir)),
			})
		}
	}
	return findings, err
}

// mdLink matches inline markdown links; image links are included since
// their targets must exist too.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks scans the given markdown files for relative links
// whose targets do not exist on disk, and validates #fragment anchors —
// both intra-document (#section) and cross-file (other.md#section) —
// against the target's headings using GitHub's slugification. External
// (scheme-prefixed) links are skipped: the checker guards the
// repository's own cross-references, not the internet.
func checkMarkdownLinks(files ...string) ([]finding, error) {
	var findings []finding
	anchors := map[string]map[string]bool{} // markdown path -> anchor set
	anchorsOf := func(path string) (map[string]bool, error) {
		if a, ok := anchors[path]; ok {
			return a, nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		a := headingAnchors(string(data))
		anchors[path] = a
		return a, nil
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				fragment := ""
				if h := strings.IndexByte(target, '#'); h >= 0 {
					target, fragment = target[:h], target[h+1:]
				}
				resolved := f // intra-document fragment
				if target != "" {
					resolved = filepath.Join(filepath.Dir(f), target)
					if _, err := os.Stat(resolved); err != nil {
						findings = append(findings, finding{
							Pos:  fmt.Sprintf("%s:%d", f, i+1),
							What: fmt.Sprintf("broken link %q (resolved %s)", m[1], resolved),
						})
						continue
					}
				}
				if fragment == "" || !strings.HasSuffix(resolved, ".md") {
					continue
				}
				a, err := anchorsOf(resolved)
				if err != nil {
					return nil, err
				}
				if !a[strings.ToLower(fragment)] {
					findings = append(findings, finding{
						Pos:  fmt.Sprintf("%s:%d", f, i+1),
						What: fmt.Sprintf("broken anchor %q: no heading in %s slugs to #%s", m[1], resolved, fragment),
					})
				}
			}
		}
	}
	return findings, nil
}

// changelogEntry matches one CHANGES.md entry line and captures its PR
// number.
var changelogEntry = regexp.MustCompile(`^- PR (\d+): \S`)

// checkChangelogOrder enforces the CHANGES.md layout contract: every
// non-blank line is one `- PR <n>: ...` entry and the PR numbers are
// strictly increasing, so the file reads as the repository's timeline
// and an entry appended under the wrong number (or re-shuffled by a
// merge) fails the build.
func checkChangelogOrder(path string) ([]finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var findings []finding
	last, lastLine := 0, 0
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		m := changelogEntry.FindStringSubmatch(line)
		if m == nil {
			findings = append(findings, finding{
				Pos:  fmt.Sprintf("%s:%d", path, i+1),
				What: `changelog line is not a "- PR <n>: ..." entry`,
			})
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil || n < 1 {
			findings = append(findings, finding{
				Pos:  fmt.Sprintf("%s:%d", path, i+1),
				What: fmt.Sprintf("bad PR number %q", m[1]),
			})
			continue
		}
		if n <= last {
			findings = append(findings, finding{
				Pos:  fmt.Sprintf("%s:%d", path, i+1),
				What: fmt.Sprintf("changelog out of order: PR %d follows PR %d (line %d) — entries must be strictly increasing", n, last, lastLine),
			})
		}
		last, lastLine = n, i+1
	}
	return findings, nil
}

// heading matches ATX markdown headings (outside code fences).
var heading = regexp.MustCompile(`^#{1,6}\s+(.+?)\s*#*\s*$`)

// headingAnchors extracts the GitHub anchor ids of a markdown document:
// one slug per heading, with -1, -2, ... suffixes on duplicates.
// Headings inside ``` code fences are ignored.
func headingAnchors(doc string) map[string]bool {
	a := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := heading.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		slug := slugify(m[1])
		if n := seen[slug]; n > 0 {
			a[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			a[slug] = true
		}
		seen[slug]++
	}
	return a
}

// slugify converts a heading to its GitHub anchor id: lowercase, spaces
// become hyphens, and everything but letters, digits, hyphens and
// underscores is dropped.
func slugify(h string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(h) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}
