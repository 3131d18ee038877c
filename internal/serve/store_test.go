package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// testKey is a valid campaign cell for store exercises.
func testKey(t testing.TB) experiments.Key {
	t.Helper()
	k, err := experiments.ParseKey([]byte(`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`))
	if err != nil {
		t.Fatalf("ParseKey: %v", err)
	}
	return k
}

// testSummary is a canonical summary payload for store exercises.
func testSummary(t testing.TB) []byte {
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

// paranoidStore is a directory Store and the entry files Put writes into
// it for testKey: a plain summary, an error, and an observed summary with
// percentiles.
type paranoidStore struct {
	*Store
	key                     experiments.Key
	plain, failed, observed []byte
}

// plainScope and observedScope are the two populations of one scale.
var plainScope, observedScope = Scope{Scale: "small"}, Scope{Scale: "small", Observed: true}

func newParanoidStore(t testing.TB) *paranoidStore {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	ps := &paranoidStore{Store: st, key: testKey(t)}
	pct, err := json.Marshal(obs.Report{Events: 12, Bytes: 480, Hash: 99})
	if err != nil {
		t.Fatal(err)
	}
	ps.plain = ps.written(t, plainScope, ps.key, Entry{Summary: testSummary(t)})
	ps.failed = ps.written(t, plainScope, ps.key, Entry{Error: "out of memory: static allocation needs 3 GB"})
	ps.observed = ps.written(t, observedScope, ps.key, Entry{Summary: testSummary(t), Percentiles: pct})
	return ps
}

// written Puts e and returns the file it became.
func (ps *paranoidStore) written(t testing.TB, sc Scope, k experiments.Key, e Entry) []byte {
	t.Helper()
	if err := ps.Put(sc, k, e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	data, err := os.ReadFile(ps.path(sc, k.Digest()))
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	return data
}

// plant writes data at the address of the store's key in scope sc and
// reads it back through Get.
func (ps *paranoidStore) plant(t testing.TB, sc Scope, data []byte) (Entry, bool, error) {
	t.Helper()
	if err := os.WriteFile(ps.path(sc, ps.key.Digest()), data, 0o644); err != nil {
		t.Fatalf("plant entry: %v", err)
	}
	return ps.Get(sc, ps.key)
}

// TestStoreParanoidReads proves corruption costs a recompute, never a
// wrong answer: torn (at any byte), tampered, stale-versioned, misplaced
// and over-long entries all read as misses.
func TestStoreParanoidReads(t *testing.T) {
	ps := newParanoidStore(t)
	other := ps.key
	other.Procs = 16
	foreign := ps.written(t, plainScope, other, Entry{Summary: testSummary(t)})
	sum := testSummary(t)
	unknownField := append(sum[:len(sum)-1:len(sum)-1], `,"Unknown":1}`...)
	entryHead := head(plainScope, ps.key)

	cases := []struct {
		name string
		data []byte
	}{
		{"torn write", ps.plain[:len(ps.plain)/2]},
		{"version skew", bytes.Replace(ps.plain, []byte(entryVersion), []byte("cell.v0"), 1)},
		// The stored key no longer is the requested one.
		{"tampered key", bytes.Replace(ps.plain, []byte(`"procs":8`), []byte(`"procs":16`), 1)},
		{"foreign file", []byte("not an entry at all")},
		{"scope skew", ps.observed},
		{"another cell's entry", foreign},
		{"appended bytes", append(ps.plain[:len(ps.plain):len(ps.plain)], '\n')},
		{"summary and error", encodeEntry(entryHead, Entry{Summary: sum, Error: "out of memory"})},
		{"unknown summary field", encodeEntry(entryHead, Entry{Summary: unknownField})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if bytes.Equal(tc.data, ps.plain) {
				t.Fatal("the corruption changed nothing")
			}
			if _, ok, err := ps.plant(t, plainScope, tc.data); err != nil || ok {
				t.Fatalf("Get on corrupted entry = ok=%v err=%v, want silent miss", ok, err)
			}
		})
	}

	// An observed entry with percentiles, a plain summary entry and an
	// error entry, each cut at every byte offset: the frame makes every
	// cut detectable, the one right after a complete summary included.
	t.Run("torn at every byte", func(t *testing.T) {
		for _, whole := range []struct {
			sc   Scope
			data []byte
		}{{observedScope, ps.observed}, {plainScope, ps.plain}, {plainScope, ps.failed}} {
			if _, ok, err := ps.plant(t, whole.sc, whole.data); err != nil || !ok {
				t.Fatalf("the whole %s entry: ok=%v err=%v, want a hit", whole.sc.dir(), ok, err)
			}
			for cut := range len(whole.data) {
				if _, ok, err := ps.plant(t, whole.sc, whole.data[:cut]); err != nil || ok {
					t.Fatalf("%s entry cut at byte %d of %d: ok=%v err=%v, want silent miss", whole.sc.dir(), cut, len(whole.data), ok, err)
				}
			}
		}
	})
}

// FuzzStoreEntry plants arbitrary bytes at an entry's address. Get never
// panics or fails on them, and a hit is a fixed point: Put of what Get
// returned, then Get, returns the same payload bytes.
func FuzzStoreEntry(f *testing.F) {
	ps := newParanoidStore(f)
	f.Add(ps.plain, false)
	f.Add(ps.failed, false)
	f.Add(ps.observed, true)
	f.Fuzz(func(t *testing.T, data []byte, observed bool) {
		sc := Scope{Scale: "small", Observed: observed}
		e, ok, err := ps.plant(t, sc, data)
		if err != nil {
			t.Fatalf("Get on planted bytes: %v", err)
		}
		if !ok {
			return
		}
		if err := ps.Put(sc, ps.key, e); err != nil {
			t.Fatalf("Put of a hit: %v", err)
		}
		again, ok, err := ps.Get(sc, ps.key)
		if err != nil || !ok {
			t.Fatalf("Get after re-Put: ok=%v err=%v", ok, err)
		}
		if !bytes.Equal(again.Summary, e.Summary) || again.Error != e.Error || !bytes.Equal(again.Percentiles, e.Percentiles) {
			t.Fatalf("a hit is not a fixed point:\n got %+v\nwant %+v", again, e)
		}
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
		if err == nil && !d.IsDir() && filepath.Ext(path) != ".entry" {
			t.Errorf("stray non-entry file %s", path)
		}
		return nil
	})
}

// TestEntryVersionPinsCodecs pins the canonical bytes of the two codecs
// an entry is made of beside the entryVersion they are stored under.
// ParseSummary zeroes a missing field, so a Summary field added without
// a bump would leave every older entry a valid hit, spliced without the
// field while fresh cells carry it.
func TestEntryVersionPinsCodecs(t *testing.T) {
	const (
		version = "cell.v2"
		summary = `{"NumProcs":0,"WallClock":0,"TotalIO":0,"TotalIOQueue":0,"TotalComm":0,"TotalCompute":0,"TotalIdle":0,"BlocksLoaded":0,"BlocksPurged":0,"BlockEfficiency":0,"MsgsSent":0,"BytesSent":0,"Steps":0,"StreamlinesCompleted":0,"PeakMemoryBytes":0,"StealAttempts":0,"StealHits":0,"TokensPassed":0,"PrefetchIssued":0,"PrefetchHits":0,"PrefetchWasted":0,"IOHiddenTime":0,"ActivePeak":0,"ReleaseStalls":0,"ReleaseStallTime":0,"ProcsLost":0,"SeedsAdopted":0,"RingReforms":0,"MasterFailovers":0,"SendFailed":0,"PathlineSteps":0,"EpochCrossings":0,"TraceEvents":0,"TraceBytes":0,"Imbalance":0}`
		key     = `{"v":"key/v1","dataset":"","seeding":"","alg":"","procs":0}`
	)
	sum, err := metrics.Summary{}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	k := experiments.Key{}.CanonicalJSON()
	switch changed := string(sum) != summary || string(k) != key; {
	case changed && entryVersion == version:
		t.Fatalf("the canonical Summary or Key bytes changed under entryVersion %q: bump entryVersion\nsummary %s\nkey     %s", entryVersion, sum, k)
	case changed || entryVersion != version:
		t.Fatalf("entryVersion is %q: pin it here with the current codec bytes\nsummary %s\nkey     %s", entryVersion, sum, k)
	}
}
