package invlint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// timeExport resolves the export-data file of package time the way the
// loaders do, so the synthetic vet configs below look like cmd/go's.
func timeExport(t *testing.T) string {
	t.Helper()
	pkgs, err := goList("time")
	if err != nil {
		t.Fatalf("go list time: %v", err)
	}
	for _, p := range pkgs {
		if p.ImportPath == "time" && p.Export != "" {
			return p.Export
		}
	}
	t.Fatal("no export data for time")
	return ""
}

// writeVetUnit lays out one deterministic-package source file and its
// vet config in a temp dir, returning the cfg path and vetx path.
func writeVetUnit(t *testing.T, src string) (cfgPath, vetxPath string) {
	t.Helper()
	dir := t.TempDir()
	goFile := filepath.Join(dir, "seeds.go")
	if err := os.WriteFile(goFile, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	vetxPath = filepath.Join(dir, "vet.out")
	cfg := vetConfig{
		ID:          "repro/internal/seeds",
		Compiler:    "gc",
		Dir:         dir,
		ImportPath:  "repro/internal/seeds",
		GoFiles:     []string{goFile},
		ImportMap:   map[string]string{"time": "time"},
		PackageFile: map[string]string{"time": timeExport(t)},
		VetxOutput:  vetxPath,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath = filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return cfgPath, vetxPath
}

const vetBadSrc = `// Package seeds violates detlint.
package seeds

import "time"

func stamp() int64 { return time.Now().UnixNano() }
`

func TestRunVetConfigReportsFindings(t *testing.T) {
	cfgPath, vetxPath := writeVetUnit(t, vetBadSrc)
	diags, err := RunVetConfig(cfgPath, []*Analyzer{detLint})
	if err != nil {
		t.Fatalf("RunVetConfig: %v", err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "time.Now") {
		t.Errorf("diags = %v, want one time.Now finding", diags)
	}
	// The protocol demands the vetx output exist even with no facts.
	if _, err := os.Stat(vetxPath); err != nil {
		t.Errorf("vetx output not written: %v", err)
	}
}

func TestRunVetConfigVetxOnly(t *testing.T) {
	cfgPath, vetxPath := writeVetUnit(t, vetBadSrc)
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	cfg.VetxOnly = true
	data, err = json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	diags, err := RunVetConfig(cfgPath, []*Analyzer{detLint})
	if err != nil {
		t.Fatalf("RunVetConfig: %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("VetxOnly unit produced diagnostics: %v", diags)
	}
	if _, err := os.Stat(vetxPath); err != nil {
		t.Errorf("vetx output not written on VetxOnly: %v", err)
	}
}

func TestRunVetConfigTypecheckFailure(t *testing.T) {
	const broken = `// Package seeds does not type-check.
package seeds

func oops() undefinedType { return nil }
`
	cfgPath, _ := writeVetUnit(t, broken)
	if _, err := RunVetConfig(cfgPath, []*Analyzer{detLint}); err == nil {
		t.Error("expected a type-check error without SucceedOnTypecheckFailure")
	}

	data, _ := os.ReadFile(cfgPath)
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	cfg.SucceedOnTypecheckFailure = true
	data, _ = json.Marshal(cfg)
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	diags, err := RunVetConfig(cfgPath, []*Analyzer{detLint})
	if err != nil || len(diags) != 0 {
		t.Errorf("SucceedOnTypecheckFailure: diags=%v err=%v, want clean success", diags, err)
	}
}

func TestRunVetConfigBadConfig(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, []byte("not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := RunVetConfig(cfgPath, Analyzers()); err == nil {
		t.Error("expected an error on malformed config")
	}
	if _, err := RunVetConfig(filepath.Join(dir, "missing.cfg"), Analyzers()); err == nil {
		t.Error("expected an error on missing config")
	}
}
