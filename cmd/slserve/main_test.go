package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the server goroutine
// writes while the test polls for the listening line.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-scale", "galactic"},
		{"positional"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(context.Background(), args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2; stderr: %s", args, code, errw.String())
		}
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &out, &errw); code != 0 {
		t.Fatalf("run(-h) = %d, want 0", code)
	}
	if !strings.Contains(errw.String(), "-cache") {
		t.Fatalf("help text does not document -cache:\n%s", errw.String())
	}
}

func TestRunBadListenAddr(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:bogus"}, &out, &errw); code != 1 {
		t.Fatalf("run with bad addr = %d, want 1; stderr: %s", code, errw.String())
	}
}

var listenRE = regexp.MustCompile(`listening on (http://[0-9.:\[\]]+)`)

// TestServeSmoke boots the real server on a free port, serves one cell
// twice (fresh, then byte-identical from the persistent cache) and
// drains it via context cancellation — the SIGTERM path.
func TestServeSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	var errw syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-scale", "small", "-cache", t.TempDir()}, &out, &errw)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never printed its address; stdout: %s stderr: %s", out.String(), errw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v (resp %+v)", err, resp)
	} else {
		resp.Body.Close()
	}

	const cell = `{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`
	postCell := func() (cached bool, summary []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/cell", "application/json", strings.NewReader(cell))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST status %d: %s", resp.StatusCode, body)
		}
		var r struct {
			Rows []struct {
				Cached  bool            `json:"cached"`
				Error   string          `json:"error"`
				Summary json.RawMessage `json:"summary"`
			} `json:"rows"`
		}
		if err := json.Unmarshal(body, &r); err != nil || len(r.Rows) != 1 {
			t.Fatalf("bad response (%v): %s", err, body)
		}
		if r.Rows[0].Error != "" {
			t.Fatalf("cell failed: %s", r.Rows[0].Error)
		}
		return r.Rows[0].Cached, r.Rows[0].Summary
	}

	cached1, sum1 := postCell()
	if cached1 {
		t.Fatal("first request claims a cache hit on an empty cache")
	}
	cached2, sum2 := postCell()
	if !cached2 {
		t.Fatal("second identical request missed the cache")
	}
	if !bytes.Equal(sum1, sum2) {
		t.Fatalf("cached summary is not byte-identical:\n fresh  %s\n cached %s", sum1, sum2)
	}

	cancel() // SIGTERM path
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d after drain; stderr: %s", code, errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("no drain confirmation in stdout: %s", out.String())
	}
}

// TestServeSmokeMemoryOnly boots without -cache (memory-only) and with
// -v: the second identical request must be a hit on the in-memory store,
// and the verbose log must land on stderr.
func TestServeSmokeMemoryOnly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errw syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-scale", "small", "-v"}, &out, &errw)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never printed its address; stdout: %s stderr: %s", out.String(), errw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "memory-only") {
		t.Fatalf("banner does not say memory-only: %s", out.String())
	}

	const cell = `{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`
	for i, wantSource := range []string{"computed", "memory"} {
		resp, err := http.Post(base+"/v1/cell", "application/json", strings.NewReader(cell))
		if err != nil {
			t.Fatalf("POST %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d status %d: %s", i, resp.StatusCode, body)
		}
		var r struct {
			Rows []struct {
				Source string `json:"source"`
			} `json:"rows"`
		}
		if err := json.Unmarshal(body, &r); err != nil || len(r.Rows) != 1 {
			t.Fatalf("bad response (%v): %s", err, body)
		}
		if r.Rows[0].Source != wantSource {
			t.Fatalf("request %d source %q, want %q", i, r.Rows[0].Source, wantSource)
		}
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d after drain; stderr: %s", code, errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain")
	}
}
