package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// testKey is a valid campaign cell for store exercises.
func testKey(t *testing.T) experiments.Key {
	t.Helper()
	k, err := experiments.ParseKey([]byte(`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`))
	if err != nil {
		t.Fatalf("ParseKey: %v", err)
	}
	return k
}

// testSummary is a canonical summary payload for store exercises.
func testSummary(t *testing.T) []byte {
	t.Helper()
	s := metrics.Summary{NumProcs: 8, WallClock: 1.5, Steps: 1234}
	data, err := s.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	return data
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	k := testKey(t)
	sum := testSummary(t)
	sc := Scope{Scale: "small"}

	if _, ok, err := st.Get(sc, k); err != nil || ok {
		t.Fatalf("Get on empty store = ok=%v err=%v, want miss", ok, err)
	}
	if err := st.Put(sc, k, Entry{Summary: sum}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	e, ok, err := st.Get(sc, k)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v, want hit", ok, err)
	}
	if !bytes.Equal(e.Summary, sum) {
		t.Fatalf("summary bytes changed across the store:\n got %s\nwant %s", e.Summary, sum)
	}
	if n := storeLen(st, sc); n != 1 {
		t.Fatalf("store holds %d entries, want 1", n)
	}

	// Other scopes are separate populations.
	for _, other := range []Scope{{Scale: "small", Observed: true}, {Scale: "paper"}} {
		if _, ok, _ := st.Get(other, k); ok {
			t.Fatalf("scope %+v sees the %+v entry", other, sc)
		}
	}
}

func TestStoreErrorEntryRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	k := testKey(t)
	sc := Scope{Scale: "small"}
	if err := st.Put(sc, k, Entry{Error: "out of memory: static allocation needs 3 GB"}); err != nil {
		t.Fatalf("Put error entry: %v", err)
	}
	e, ok, err := st.Get(sc, k)
	if err != nil || !ok {
		t.Fatalf("Get = ok=%v err=%v, want hit", ok, err)
	}
	if e.Error == "" || len(e.Summary) != 0 {
		t.Fatalf("error entry came back as %+v", e)
	}
}

func TestStorePutRejectsMalformedEntries(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	k := testKey(t)
	sc := Scope{Scale: "small"}
	if err := st.Put(sc, k, Entry{}); err == nil {
		t.Fatal("Put with neither summary nor error succeeded")
	}
	if err := st.Put(sc, k, Entry{Summary: testSummary(t), Error: "both"}); err == nil {
		t.Fatal("Put with both summary and error succeeded")
	}
	if err := st.Put(sc, k, Entry{Summary: []byte(`{"NumProcs":"not a number"}`)}); err == nil {
		t.Fatal("Put with a non-canonical summary succeeded")
	}
}

// TestStoreParanoidReads proves corruption costs a recompute, never a
// wrong answer: torn, tampered and stale-versioned entries all read as
// misses.
func TestStoreParanoidReads(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	k := testKey(t)
	sc := Scope{Scale: "small"}
	corrupt := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		if err := st.Put(sc, k, Entry{Summary: testSummary(t)}); err != nil {
			t.Fatalf("Put: %v", err)
		}
		path := st.path(sc, k.Digest())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read entry: %v", err)
		}
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatalf("rewrite entry: %v", err)
		}
		if _, ok, err := st.Get(sc, k); err != nil || ok {
			t.Fatalf("Get on corrupted entry = ok=%v err=%v, want silent miss", ok, err)
		}
	}

	t.Run("torn write", func(t *testing.T) {
		corrupt(t, func(d []byte) []byte { return d[:len(d)/2] })
	})
	t.Run("version skew", func(t *testing.T) {
		corrupt(t, func(d []byte) []byte { return bytes.Replace(d, []byte("cell.v1"), []byte("cell.v0"), 1) })
	})
	t.Run("tampered key", func(t *testing.T) {
		// The stored key no longer digests to the entry's address.
		corrupt(t, func(d []byte) []byte { return bytes.Replace(d, []byte(`"procs":8`), []byte(`"procs":16`), 1) })
	})
	t.Run("foreign file", func(t *testing.T) {
		corrupt(t, func([]byte) []byte { return []byte("not json at all") })
	})
}

// TestStoreLeavesNoTempDroppings verifies the atomic-write path cleans
// up after itself.
func TestStoreLeavesNoTempDroppings(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	k := testKey(t)
	sc := Scope{Scale: "small"}
	for i := 0; i < 3; i++ { // overwrite twice
		if err := st.Put(sc, k, Entry{Summary: testSummary(t)}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) != ".json" {
			t.Errorf("stray non-entry file %s", path)
		}
		return nil
	})
}
