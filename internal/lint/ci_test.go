package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// shellWords splits one shell command line into words, honouring single
// and double quotes, and stops at the first pipe, redirection or command
// separator outside quotes.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case strings.ContainsRune("|&;><", r):
			if inWord {
				words = append(words, cur.String())
			}
			return words
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// alternatives splits a regular expression at its top-level '|'.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch c {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// ciRunFindings checks every `go test` command of a workflow against the
// Test and Fuzz functions declared in each package directory (tests maps
// a slash-separated directory relative to the module root to its
// names): each alternative of a -run pattern, "^$" aside, and each -fuzz
// target must match a function declared in a package the command names
// ("./..." names every directory of tests).
func ciRunFindings(workflow string, tests map[string][]string) []finding {
	var findings []finding
	for n, line := range strings.Split(workflow, "\n") {
		line = strings.TrimSpace(line)
		i := strings.Index(line, "go test ")
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		words := shellWords(line[i:])
		var patterns []string // "-run" or "-fuzz", then the pattern
		var names []string
		for j := 2; j < len(words); j++ {
			w := words[j]
			flag, value, hasValue := strings.Cut(w, "=")
			switch {
			case flag == "-run" || flag == "-fuzz":
				if !hasValue && j+1 < len(words) {
					j++
					value = words[j]
				}
				patterns = append(patterns, flag, value)
			case strings.HasPrefix(w, "./"):
				pkg := strings.TrimPrefix(w, "./")
				for dir, fns := range tests {
					if dir == pkg || pkg == "..." || strings.HasSuffix(pkg, "/...") && strings.HasPrefix(dir+"/", strings.TrimSuffix(pkg, "...")) {
						names = append(names, fns...)
					}
				}
			}
		}
		for j := 0; j < len(patterns); j += 2 {
			flag, pattern := patterns[j], patterns[j+1]
			alts := []string{pattern}
			if flag == "-run" {
				alts = alternatives(pattern)
			}
			for _, alt := range alts {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					findings = append(findings, findingf("ci.yml", n+1, "%s %q: %v", flag, alt, err))
					continue
				}
				matched := false
				for _, name := range names {
					if re.MatchString(name) && (flag == "-run" || strings.HasPrefix(name, "Fuzz")) {
						matched = true
						break
					}
				}
				if !matched {
					findings = append(findings, findingf("ci.yml", n+1, "%s %q matches no test in the packages the command names", flag, alt))
				}
			}
		}
	}
	return findings
}

// moduleTests lists the Test and Fuzz functions of the module's test
// files by directory, leaving out nested modules (bench/), which
// `go test ./...` at the root does not reach.
func moduleTests(t *testing.T) map[string][]string {
	tr := repoTree(t)
	nested := map[string]bool{}
	inModule := func(dir string) bool {
		for d := dir; d != "." && d != "/"; d = filepath.ToSlash(filepath.Dir(d)) {
			v, ok := nested[d]
			if !ok {
				_, err := os.Stat(filepath.Join(tr.root, d, "go.mod"))
				v = err == nil
				nested[d] = v
			}
			if v {
				return false
			}
		}
		return true
	}
	tests := map[string][]string{}
	for _, src := range tr.files {
		if !src.test || !inModule(src.dir) {
			continue
		}
		for _, decl := range src.file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			if name := fd.Name.Name; strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") {
				tests[src.dir] = append(tests[src.dir], name)
			}
		}
	}
	return tests
}

// TestCIRunPatternsMatch keeps CI's test selections honest: every
// alternative of every -run pattern in .github/workflows/ci.yml ("^$"
// aside), and every -fuzz target, must match a Test or Fuzz function
// declared in the packages its command names. A renamed or deleted test
// would otherwise leave a step that silently runs less than it says.
func TestCIRunPatternsMatch(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range ciRunFindings(string(data), moduleTests(t)) {
		t.Errorf("%s", f)
	}
}

// TestCIRunCheckerBites proves the workflow check bites: a stale -run
// alternative, a -run alternative declared only in a package the command
// does not name, and a -fuzz target that names no Fuzz function are
// findings; "^$", quoted and "="-joined patterns, "./..." and a pipe
// after the command are not.
func TestCIRunCheckerBites(t *testing.T) {
	tests := map[string][]string{
		"internal/a": {"TestAlpha", "FuzzAlpha"},
		"internal/b": {"TestBeta"},
	}
	workflow := `
      - run: go test -race -count=2 -run 'Alpha|Gone' ./internal/a
      - run: go test -run TestBeta ./internal/a
      - run: go test -run '^$' -fuzz TestAlpha -fuzztime 10s ./internal/a
      # go test -run Commented ./internal/a
      - run: go test -run='^$' -bench=. ./...
      - run: go test -run "Alpha|Beta" ./... | tee out
      - run: go test -run '^$' -fuzz=FuzzAlpha ./internal/a
`
	got := ciRunFindings(workflow, tests)
	want := []string{`"Gone"`, `"TestBeta"`, `-fuzz "TestAlpha"`}
	if len(got) != len(want) {
		t.Fatalf("findings = %q, want %d", got, len(want))
	}
	for i, w := range want {
		if !strings.Contains(got[i].String(), w) {
			t.Errorf("finding %d = %s, want it to name %s", i, got[i], w)
		}
	}
}
