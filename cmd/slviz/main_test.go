package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-dataset", "bogus"}, &out, &errw); code != 2 {
		t.Errorf("bad dataset: run = %d, want 2", code)
	}
	if code := run([]string{"-seeding", "bogus"}, &out, &errw); code != 2 {
		t.Errorf("bad seeding: run = %d, want 2", code)
	}
	if code := run([]string{"-nosuchflag"}, &out, &errw); code != 2 {
		t.Errorf("bad flag: run = %d, want 2", code)
	}
	for _, args := range [][]string{
		{"-steps", "0"},
		{"-lines", "0"}, {"-lines", "-3"},
		{"-width", "-5"}, {"-width", "0"},
		{"-height", "0"}, {"-height", "-1"},
		// slviz draws curves only: the per-processor timeline is slrun
		// -trace's, and the picture's machine is fixed.
		{"-gantt"}, {"-alg", "hybrid"}, {"-procs", "8"},
	} {
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-h"}, &out, &errw); code != 0 {
		t.Errorf("run(-h) = %d, want 0", code)
	}
}

func TestRunWritesImage(t *testing.T) {
	if testing.Short() {
		t.Skip("rendering run too slow for -short")
	}
	path := filepath.Join(t.TempDir(), "out.ppm")
	var out, errw bytes.Buffer
	args := []string{"-dataset", "fusion", "-out", path,
		"-width", "64", "-height", "48", "-lines", "12", "-steps", "200"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("missing confirmation line: %s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("P6")) {
		t.Errorf("output is not a binary PPM (got %q...)", data[:min(8, len(data))])
	}
}

// TestRunReportsWriteFailure pins the exit status of an image that did
// not reach its file: a full device refuses the write, and slviz says so
// and exits 1 rather than confirming it.
func TestRunReportsWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var out, errw bytes.Buffer
	args := []string{"-dataset", "fusion", "-out", "/dev/full",
		"-width", "16", "-height", "12", "-lines", "2", "-steps", "20"}
	if code := run(args, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; stdout: %s", code, out.String())
	}
	if out.Len() != 0 || !strings.Contains(errw.String(), "slviz:") {
		t.Errorf("a failed write must report on stderr only: stdout %q, stderr %q", out.String(), errw.String())
	}
}

// TestRunThermalHonoursSteps pins -steps on the Figure 4 rendering:
// dense thermal seeding picks its own short budget, which -steps must
// replace, so two budgets draw two different pictures.
func TestRunThermalHonoursSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("rendering run too slow for -short")
	}
	dir := t.TempDir()
	var images [][]byte
	for _, steps := range []string{"50", "400"} {
		path := filepath.Join(dir, steps+".ppm")
		var out, errw bytes.Buffer
		args := []string{"-dataset", "thermal", "-seeding", "dense", "-out", path,
			"-width", "64", "-height", "48", "-lines", "40", "-steps", steps}
		if code := run(args, &out, &errw); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, errw.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, data)
	}
	if bytes.Equal(images[0], images[1]) {
		t.Error("-steps 50 and -steps 400 wrote the same thermal image")
	}
}
