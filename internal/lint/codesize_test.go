package lint

import (
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// codeSize counts the code lines of every directory under root by the
// .codesize rule: each *.go file that is not a _test.go file and not
// under root/bench (a nested module, measured by its own job) counts
// every line that is neither blank nor a // comment once leading white
// space is gone. Fixtures under testdata count; a /* */ line counts.
// Keys are slash-separated directories relative to root.
func codeSize(root string) (map[string]int, error) {
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == filepath.Join(root, "bench") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || isTestFile(path) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimLeftFunc(line, unicode.IsSpace); line != "" && !strings.HasPrefix(line, "//") {
				counts[filepath.ToSlash(rel)]++
			}
		}
		return nil
	})
	return counts, err
}

// TestCodeSize is the .codesize ratchet, pointed down: the module's
// counted lines (codeSize) must not exceed the total checked in at
// .codesize. A change that shrinks the tree lowers the number; one that
// must grow it raises it in its own diff, where a reviewer sees it. -v
// logs each directory's count.
func TestCodeSize(t *testing.T) {
	root := repoRoot(t)
	counts, err := codeSize(root)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, dir := range slices.Sorted(maps.Keys(counts)) {
		t.Logf("%6d %s", counts[dir], dir)
		total += counts[dir]
	}
	data, err := os.ReadFile(filepath.Join(root, ".codesize"))
	if err != nil {
		t.Fatal(err)
	}
	max, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil {
		t.Fatalf(".codesize: %v", err)
	}
	t.Logf("%6d total (.codesize, the total checked in: %d)", total, max)
	if total > max {
		t.Errorf("the tree grew past .codesize (%d > %d): delete something, or raise the number and say why", total, max)
	}
}

// TestCodeSizeCounts proves codeSize counts what the rule says: code and
// /* */ lines in non-test files, fixtures included, per directory; not
// blank lines, // lines, _test.go files or the bench/ module.
func TestCodeSizeCounts(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"a.go":               "package a\n\n// doc\n\t// indented\nfunc A() {}\n/* block */\n \t\n",
		"a_test.go":          "package a\n\nfunc TestA() {}\n",
		"sub/s.go":           "package sub\nvar S = 1\n",
		"testdata/fix.go":    "package fix\n",
		"bench/main.go":      "package main\n\nfunc main() {}\n",
		"notes.txt":          "not go\n",
		"sub/bench/inner.go": "package bench\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	counts, err := codeSize(root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{".": 3, "sub": 2, "testdata": 1, "sub/bench": 1}
	if !maps.Equal(counts, want) {
		t.Errorf("codeSize = %v, want %v", counts, want)
	}
}
