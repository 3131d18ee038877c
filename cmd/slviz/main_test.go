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
		{"-height", "0"}, {"-gantt", "-height", "-1"},
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

func TestRunBadGanttFlags(t *testing.T) {
	cases := [][]string{
		{"-alg", "hybrid"},             // -alg without -gantt
		{"-procs", "8"},                // -procs without -gantt
		{"-gantt", "-alg", "sideways"}, // unknown algorithm
		{"-gantt", "-procs", "-2"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestRunGanttWritesImage smoke-tests the timeline mode: a -gantt run
// must produce a non-trivial PPM and report the traced event count.
func TestRunGanttWritesImage(t *testing.T) {
	if testing.Short() {
		t.Skip("rendering run too slow for -short")
	}
	path := filepath.Join(t.TempDir(), "gantt.ppm")
	var out, errw bytes.Buffer
	args := []string{"-gantt", "-alg", "hybrid", "-procs", "4",
		"-dataset", "fusion", "-out", path,
		"-width", "128", "-height", "64", "-steps", "200"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "hybrid/4 timeline") {
		t.Errorf("missing timeline confirmation: %s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("P6")) {
		t.Errorf("output is not a binary PPM (got %q...)", data[:min(8, len(data))])
	}
}
