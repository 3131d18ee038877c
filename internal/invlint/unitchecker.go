// The `go vet -vettool` protocol: cmd/go invokes the tool once per
// compilation unit with the path of a JSON config file (ending in
// ".cfg") describing the unit — source files, the import map, and the
// export-data file of every dependency, all precomputed by the build
// system. The tool type-checks the unit, runs its analyzers, writes the
// (empty — the suite exchanges no facts) vetx output file cmd/go
// expects, prints findings to stderr and signals them with a nonzero
// exit. This mirrors golang.org/x/tools/go/analysis/unitchecker on the
// standard library alone.
package invlint

import (
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
)

// vetConfig is the JSON payload cmd/go writes for a vet tool (the
// vetConfig struct of cmd/go/internal/work; field names are the
// protocol).
type vetConfig struct {
	// ID is the unit's identifier (usually the import path).
	ID string
	// Compiler is the toolchain name ("gc").
	Compiler string
	// Dir is the package directory.
	Dir string
	// ImportPath is the unit's import path.
	ImportPath string
	// GoVersion is the language version for the unit.
	GoVersion string
	// GoFiles are the unit's Go sources (absolute paths; test units
	// include the test files).
	GoFiles []string
	// NonGoFiles are the unit's non-Go sources (unused here).
	NonGoFiles []string
	// IgnoredFiles are build-constrained-away sources (unused here).
	IgnoredFiles []string
	// ImportMap maps source import strings to package paths.
	ImportMap map[string]string
	// PackageFile maps package paths to export-data files.
	PackageFile map[string]string
	// Standard marks standard-library packages.
	Standard map[string]bool
	// PackageVetx maps package paths to fact files from earlier runs
	// (unused: the suite exchanges no facts).
	PackageVetx map[string]string
	// VetxOnly asks only for fact computation, no diagnostics.
	VetxOnly bool
	// VetxOutput is where the tool must write its fact file.
	VetxOutput string
	// SucceedOnTypecheckFailure asks the tool to exit 0 on type errors
	// (cmd/go's arrangement for packages that do not compile).
	SucceedOnTypecheckFailure bool
}

// RunVetConfig executes the analyzer suite on one vet compilation unit
// and returns its diagnostics. The caller decides the exit code.
func RunVetConfig(cfgPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("invlint: parsing vet config %s: %w", cfgPath, err)
	}

	// cmd/go requires the vetx output to exist even when the tool
	// computes no facts; write it first so every exit path below
	// satisfies the protocol.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("invlint.vetx\n"), 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		// Dependencies are vetted only for facts; the suite has none.
		return nil, nil
	}

	fset := token.NewFileSet()
	files, err := parseFiles(fset, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("invlint: no export data for %q in vet config", path)
		}
		return os.Open(f)
	}
	u, err := checkUnit(fset, cfg.ImportPath, files, importer.ForCompiler(fset, "gc", lookup))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}
	return runUnit(u, analyzers)
}
