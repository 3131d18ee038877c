package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// stores builds an empty Store on each medium.
func stores(t *testing.T) map[string]*Store {
	t.Helper()
	disk, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return map[string]*Store{"disk": disk, "memory": newMemStore(1 << 20)}
}

func TestStoreRoundTrip(t *testing.T) {
	for medium, st := range stores(t) {
		t.Run(medium, func(t *testing.T) {
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
		})
	}
}

func TestStoreErrorEntryRoundTrip(t *testing.T) {
	for medium, st := range stores(t) {
		t.Run(medium, func(t *testing.T) {
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
		})
	}
}

func TestStorePutRejectsMalformedEntries(t *testing.T) {
	for medium, st := range stores(t) {
		t.Run(medium, func(t *testing.T) {
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
			if n := storeLen(st, sc); n != 0 {
				t.Fatalf("refused entries left %d behind", n)
			}
		})
	}
}

// TestMemStoreBound pins the memory medium's bound: the payload bytes
// held never pass the limit, the oldest entry goes first whatever was
// hit since, a hit moves nothing, and a Server whose entry was evicted
// recomputes the same bytes.
func TestMemStoreBound(t *testing.T) {
	sum := testSummary(t)
	sc := Scope{Scale: "small"}
	key := func(procs int) experiments.Key {
		k := testKey(t)
		k.Procs = procs
		return k
	}
	st := newMemStore(3*len(sum) + len(sum)/2) // room for three entries, not four
	has := func(procs int) bool {
		_, ok, _ := st.Get(sc, key(procs))
		return ok
	}
	for procs := 1; procs <= 3; procs++ {
		if err := st.Put(sc, key(procs), Entry{Summary: sum}); err != nil {
			t.Fatal(err)
		}
	}
	order := append([]memAddr(nil), st.order...)
	if !has(1) || !has(2) || !has(3) || st.size != 3*len(sum) {
		t.Fatalf("three entries under the limit: size %d, want all three held", st.size)
	}
	if !reflect.DeepEqual(order, st.order) {
		t.Fatal("hits reordered the store")
	}
	// A fourth entry evicts the oldest, although it was hit last; a re-Put
	// of a held entry changes nothing; an error entry counts its text.
	for _, e := range []Entry{{Summary: sum}, {Summary: sum}, {Error: "deterministic failure"}} {
		if err := st.Put(sc, key(4), e); err != nil {
			t.Fatal(err)
		}
		if st.size > st.limit || len(st.mem) != 3 || len(st.order) != 3 || has(1) || !has(2) || !has(3) || !has(4) {
			t.Fatalf("after a fourth entry: size %d (limit %d), %d held, oldest held=%v", st.size, st.limit, len(st.mem), has(1))
		}
	}
	if want := 2*len(sum) + len("deterministic failure"); st.size != want {
		t.Fatalf("size %d after replacing a summary by an error, want %d", st.size, want)
	}
	// An entry larger than the whole limit is not kept, and takes the
	// rest with it on the way out: the bound holds unconditionally.
	if err := st.Put(sc, key(5), Entry{Error: strings.Repeat("x", st.limit+1)}); err != nil {
		t.Fatal(err)
	}
	if st.size != 0 || len(st.mem) != 0 || len(st.order) != 0 {
		t.Fatalf("an oversized entry left size %d, %d entries", st.size, len(st.mem))
	}

	// A Server on a store with room for one cell: the second cell evicts
	// the first, which is then computed again — same bytes, "computed".
	s := newTestServer(t, nil)
	other := strings.Replace(cellBody, "ondemand", "static", 1)
	first := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", cellBody)).Rows[0]
	s.store = newMemStore(len(first.Summary) + len(first.Summary)/2)
	for _, body := range []string{cellBody, other} {
		if r := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", body)).Rows[0]; r.Source != "computed" || r.Error != "" {
			t.Fatalf("filling the small store: source %q, error %q", r.Source, r.Error)
		}
	}
	if r := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", other)).Rows[0]; r.Source != "memory" {
		t.Fatalf("the newest entry was answered by %q, want memory", r.Source)
	}
	again := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", cellBody)).Rows[0]
	if again.Cached || again.Source != "computed" || !bytes.Equal(again.Summary, first.Summary) {
		t.Fatalf("evicted cell: cached=%v source=%q, same bytes=%v; want a byte-identical recomputation",
			again.Cached, again.Source, bytes.Equal(again.Summary, first.Summary))
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
