// Command slvet runs the repository's determinism-contract analyzers
// (internal/invlint, DESIGN.md §10) as a vet tool, driven by cmd/go: the
// argument is a vet .cfg file, and the -V=full handshake and the vetx
// fact files are part of the protocol.
//
//	go build -o /tmp/slvet ./cmd/slvet
//	go vet -vettool=/tmp/slvet ./...
//	go vet -vettool=/tmp/slvet -a detlint,simtime ./internal/core
//
// It runs two analyzers, detlint and simtime. Exit status 0 means the
// unit proves the contract; slvet does not load packages itself.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/invlint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// version is the human-facing tool version; the -V=full handshake
// appends a content hash of the executable so cmd/go's result cache
// invalidates when the tool changes.
const version = "v1"

func run(args []string, stdout, stderr io.Writer) int {
	// cmd/go probes the tool with -V=full before first use and requires
	// a "<name> version <id>" line; answer before normal flag parsing so
	// the probe never tangles with analyzer flags.
	for _, a := range args {
		switch a {
		case "-V=full", "-V", "--V=full":
			fmt.Fprintf(stdout, "slvet version %s-%s\n", version, selfHash())
			return 0
		case "-flags", "--flags":
			// cmd/go asks which tool flags exist so it can accept them on
			// the `go vet` command line; JSON per the vettool protocol.
			fmt.Fprintln(stdout, `[{"Name":"a","Bool":false,"Usage":"comma-separated analyzers to run"},{"Name":"list","Bool":true,"Usage":"list the analyzers and exit"}]`)
			return 0
		}
	}

	fs := flag.NewFlagSet("slvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("a", "", "comma-separated analyzers to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *list {
		for _, a := range invlint.Analyzers() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := invlint.Analyzers()
	if *names != "" {
		analyzers = analyzers[:0:0]
		for _, n := range strings.Split(*names, ",") {
			a, ok := invlint.AnalyzerByName(strings.TrimSpace(n))
			if !ok {
				fmt.Fprintf(stderr, "slvet: unknown analyzer %q\n", n)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	rest := fs.Args()
	if len(rest) != 1 || !strings.HasSuffix(rest[0], ".cfg") {
		fmt.Fprintln(stderr, "usage: go vet -vettool=/tmp/slvet [-a analyzers] ./...  (slvet is a vet tool: go build -o /tmp/slvet ./cmd/slvet)")
		return 2
	}
	// One compilation unit described by cmd/go.
	diags, err := invlint.RunVetConfig(rest[0], analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "slvet: %v\n", err)
		return 1
	}
	if len(diags) > 0 {
		cwd, _ := os.Getwd()
		fmt.Fprint(stderr, invlint.FormatDiagnostics(cwd, diags))
		return 2
	}
	return 0
}

// selfHash returns a short content hash of the running executable, the
// unique tool identity cmd/go folds into its vet result cache.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
