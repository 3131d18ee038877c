package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestSaturatedErrorMessage pins the admission-failure text clients see
// in 429 bodies.
func TestSaturatedErrorMessage(t *testing.T) {
	e := &saturatedError{Tenant: "acme", Limit: 8}
	msg := e.Error()
	for _, want := range []string{`"acme"`, "8", "retry"} {
		if !strings.Contains(msg, want) {
			t.Errorf("SaturatedError message %q missing %q", msg, want)
		}
	}
}

// TestOpenStoreRejectsBadRoots covers the store-construction failures:
// an empty root and a root that cannot be a directory.
func TestOpenStoreRejectsBadRoots(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Error("OpenStore(\"\") should fail")
	}
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(filepath.Join(file, "sub")); err == nil {
		t.Error("OpenStore under a regular file should fail")
	}
}

// TestStoreIOFailures drives the non-ENOENT error paths: a directory
// squatting on an entry's address makes Get report an I/O error (not a
// miss) and makes Put's rename fail; a file squatting on the version
// directory makes Put's MkdirAll fail.
func TestStoreIOFailures(t *testing.T) {
	sc := Scope{Scale: "tiny"}
	k, err := experiments.ParseKey([]byte(cellBody))
	if err != nil {
		t.Fatal(err)
	}
	entry := Entry{Error: "deterministic failure"}

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	squat := st.path(sc, k.Digest())
	if err := os.MkdirAll(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(sc, k); err == nil || ok {
		t.Errorf("Get with a directory at the entry address: ok=%v err=%v, want an I/O error", ok, err)
	}
	if err := st.Put(sc, k, entry); err == nil {
		t.Error("Put renaming over a directory should fail")
	}

	dir2 := t.TempDir()
	st2, err := OpenStore(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, entryVersion), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st2.Put(sc, k, entry); err == nil {
		t.Error("Put under a file-squatted version dir should fail")
	}
}

// TestNewConfigValidation covers server assembly: scale resolution by
// name, and the refusals — an unknown scale, a custom scale under a name
// that is not its own (the name scopes the cache, so its cells would be
// served as another scale's), and a cache root that cannot open.
func TestNewConfigValidation(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	tiny, small := tinyScale(), experiments.SmallScale()
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"unknown scale", Config{ScaleName: "no-such-scale"}},
		{"custom scale under another name", Config{ScaleName: "small", Scale: &tiny}},
		{"custom scale under a built-in name", Config{ScaleName: "small", Scale: &small}},
		{"unopenable cache dir", Config{ScaleName: "small", CacheDir: filepath.Join(file, "sub")}},
	} {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: New should fail", c.name)
		}
	}
	s, err := New(Config{ScaleName: "small"})
	if err != nil {
		t.Fatalf("New by scale name: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	if s.store.tier != "memory" || s.cacheLen() != 0 {
		t.Errorf("a Server without a CacheDir should start on an empty memory store, got %q", s.store.tier)
	}
}

// TestCorruptCacheFallsBackToCompute plants a directory at the cell's
// cache address so both the read and the write-back fail, and checks
// that concurrent requests all still succeed (fresh computation, shared
// or repeated) while the failures are logged — corruption costs a
// recompute, never a wrong or failed answer. The log function takes no
// lock of its own: Config.Log promises serialized calls. Run with -race.
func TestCorruptCacheFallsBackToCompute(t *testing.T) {
	var logged []string
	s := newTestServer(t, func(c *Config) {
		c.CacheDir = t.TempDir()
		c.Log = func(msg string) { logged = append(logged, msg) }
	})
	k, err := experiments.ParseKey([]byte(cellBody))
	if err != nil {
		t.Fatal(err)
	}
	squat := s.store.path(Scope{Scale: "tiny"}, k.Digest())
	if err := os.MkdirAll(squat, 0o755); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := post(s, http.MethodPost, "/v1/cell", "", cellBody)
			var resp Response
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Rows) != 1 {
				t.Errorf("status %d, body %s", w.Code, w.Body.String())
				return
			}
			if r := resp.Rows[0]; r.Cached || r.Source != "computed" || r.Error != "" || len(r.Summary) == 0 {
				t.Errorf("squatted cache should force a fresh computation, got cached=%v source=%q err=%q", r.Cached, r.Source, r.Error)
			}
		}()
	}
	wg.Wait()
	var sawRead, sawWrite bool
	for _, msg := range logged {
		sawRead = sawRead || strings.Contains(msg, "cache read")
		sawWrite = sawWrite || strings.Contains(msg, "cache write")
	}
	if !sawRead || !sawWrite {
		t.Errorf("cache failures not logged (read=%v write=%v): %q", sawRead, sawWrite, logged)
	}
}
