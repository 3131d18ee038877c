// The content-addressed result cache.
//
// Every campaign cell is a deterministic function of its
// experiments.Key, so a cell's outcome can be cached forever under the
// key's content address (the SHA-256 digest of its canonical JSON
// encoding, DESIGN.md §14). A Store keeps entries on one of two media,
// fixed when it is built. The directory medium is a plain tree —
//
//	<root>/<entryVersion>/<scope>/<digest[:2]>/<digest>.json
//
// — with one JSON Entry per cell, written atomically (temp file +
// rename) so a crashed or concurrent writer can never leave a torn
// entry behind. The memory medium is a map under the same addresses
// that holds at most a fixed number of payload bytes and drops the
// oldest entry first. Scope separates cache populations that are NOT
// byte-comparable even for equal keys: the scale (different problem
// sizes) and whether the campaign ran with the observation recorder
// attached (observation is non-perturbing except for the documented
// TraceEvents/TraceBytes meta-counters, which do land in the Summary).
//
// Both media hold only what Put has validated. Directory reads are
// paranoid besides: an entry that fails to parse, carries the wrong
// version or scope, or whose embedded key does not digest to its own
// address is treated as a cache miss, never served. Corruption — like
// eviction — can cost a recompute; it can never serve the wrong cell.
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// entryVersion names the on-disk cache entry layout. It must change
// whenever the entry schema, the key codec (experiments.KeyCodecVersion)
// or the summary codec (metrics.SummaryCodecVersion) changes; because it
// is a path component, a bump atomically orphans — rather than corrupts
// — every entry written under the old rules.
const entryVersion = "cell.v1"

// Scope names one cache population: entries are only byte-comparable
// within a (scale, observed) pair.
type Scope struct {
	// Scale is the campaign scale name ("small", "default", "paper").
	// The scale shapes every problem, so identical keys at different
	// scales are different cells.
	Scale string
	// Observed marks populations computed with the obs recorder
	// attached: their summaries carry the TraceEvents/TraceBytes
	// meta-counters and so differ bytewise from unobserved ones.
	Observed bool
}

// dir renders the scope's path component.
func (sc Scope) dir() string {
	if sc.Observed {
		return sc.Scale + "+obs"
	}
	return sc.Scale
}

// Entry is one cached cell outcome. Exactly one of Summary and Error is
// set, mirroring experiments.Outcome: deterministic failures (the
// static-allocation OOM, static's typed fault refusal) are results too,
// and caching them makes repeat failures as free as repeat successes.
type Entry struct {
	// V is entryVersion at write time.
	V string `json:"v"`
	// Scale and Observed echo the scope for self-description and are
	// verified on read.
	Scale    string `json:"scale"`
	Observed bool   `json:"observed,omitempty"`
	// Key is the cell's canonical key encoding — the preimage of the
	// entry's address, re-verified on read.
	Key json.RawMessage `json:"key"`
	// Summary is the canonical metrics.Summary encoding
	// (metrics.CanonicalJSON). Responses splice these bytes verbatim,
	// which is what makes a cache hit byte-identical to the fresh
	// computation.
	Summary json.RawMessage `json:"summary,omitempty"`
	// Percentiles is the cell's obs.Report block, present only in
	// observed scopes.
	Percentiles json.RawMessage `json:"percentiles,omitempty"`
	// Error is the deterministic failure text for cells that cannot
	// complete (e.g. the paper's Figure 13 OOM).
	Error string `json:"error,omitempty"`
}

// valid reports whether the entry is well-formed for scope sc and
// addressed by digest.
func (e *Entry) valid(sc Scope, digest string) bool {
	if e.V != entryVersion || e.Scale != sc.Scale || e.Observed != sc.Observed {
		return false
	}
	if (len(e.Summary) == 0) == (e.Error == "") {
		return false // exactly one of summary/error
	}
	k, err := experiments.ParseKey(e.Key)
	if err != nil || k.Digest() != digest {
		return false
	}
	if len(e.Summary) > 0 {
		if _, err := metrics.ParseSummary(e.Summary); err != nil {
			return false
		}
	}
	return true
}

// Store is the result cache, on the medium its constructor chose: a
// directory (OpenStore) or a bounded in-process map (newMemStore). The
// zero value is unusable. A Store is safe for concurrent use: directory
// writes are atomic renames and reads verify what they find; the map is
// behind a lock that a hit only read-locks.
type Store struct {
	tier string // what Row.Source calls a hit: "disk" or "memory"
	root string // the directory medium's root

	// The memory medium: payloads (Summary, Percentiles, Error — the
	// address already encodes the version, the scope and the key) in
	// mem, their addresses oldest first in order, size payload bytes in
	// all and never more than limit.
	mu          sync.RWMutex
	mem         map[memAddr]Entry
	order       []memAddr
	size, limit int
}

// memAddr addresses one entry of the memory medium.
type memAddr struct {
	scope  Scope
	digest string
}

// OpenStore opens (creating if needed) a cache rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open cache: %w", err)
	}
	return &Store{tier: "disk", root: dir}, nil
}

// newMemStore returns a cache in memory that holds at most limit payload
// bytes.
func newMemStore(limit int) *Store {
	return &Store{tier: "memory", mem: make(map[memAddr]Entry), limit: limit}
}

// path maps an address to its entry file.
func (st *Store) path(sc Scope, digest string) string {
	return filepath.Join(st.root, entryVersion, sc.dir(), digest[:2], digest+".json")
}

// Get looks up the cached outcome of k in scope sc. Missing, evicted,
// torn, stale-versioned and tampered entries all report a miss; the only
// error condition is an I/O failure other than non-existence. The memory
// medium returns the payload fields alone, and shares their bytes with
// every other hit: do not modify them.
func (st *Store) Get(sc Scope, k experiments.Key) (Entry, bool, error) {
	digest := k.Digest()
	if st.mem != nil {
		st.mu.RLock()
		e, ok := st.mem[memAddr{sc, digest}]
		st.mu.RUnlock()
		return e, ok, nil
	}
	data, err := os.ReadFile(st.path(sc, digest))
	if err != nil {
		if os.IsNotExist(err) {
			return Entry{}, false, nil
		}
		return Entry{}, false, fmt.Errorf("serve: cache read: %w", err)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, false, nil // torn or foreign file: a miss, not a failure
	}
	if !e.valid(sc, digest) {
		return Entry{}, false, nil
	}
	return e, true, nil
}

// Put caches the outcome of k in scope sc. The entry's V, Scale,
// Observed and Key fields are filled in by Put; callers supply only the
// payload (Summary or Error, plus Percentiles in observed scopes), and
// leave its bytes alone afterwards — the memory medium keeps them.
// A directory write is atomic: concurrent Puts of the same
// (deterministic) outcome are harmless last-writer-wins renames.
func (st *Store) Put(sc Scope, k experiments.Key, e Entry) error {
	e.V = entryVersion
	e.Scale = sc.Scale
	e.Observed = sc.Observed
	e.Key = k.CanonicalJSON()
	digest := k.Digest()
	if !e.valid(sc, digest) {
		return fmt.Errorf("serve: refusing to cache malformed entry for %s (need exactly one of summary/error)", k.Label())
	}
	if st.mem != nil {
		st.putMem(memAddr{sc, digest}, Entry{Summary: e.Summary, Percentiles: e.Percentiles, Error: e.Error})
		return nil
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("serve: cache encode: %w", err)
	}
	path := st.path(sc, digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("serve: cache write: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+digest+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: cache write: %w", err)
	}
	return nil
}

// putMem stores payload p at address a and then drops entries, oldest
// first, until the payload bytes fit the limit again. Oldest-first rather
// than least-recently-used keeps a hit free of writes; every entry can
// be recomputed, so the order decides cost, never correctness.
func (st *Store) putMem(a memAddr, p Entry) {
	payload := func(e Entry) int { return len(e.Summary) + len(e.Percentiles) + len(e.Error) }
	st.mu.Lock()
	defer st.mu.Unlock()
	old, had := st.mem[a]
	if !had {
		st.order = append(st.order, a)
	}
	st.mem[a] = p
	st.size += payload(p) - payload(old)
	for st.size > st.limit {
		st.size -= payload(st.mem[st.order[0]])
		delete(st.mem, st.order[0])
		st.order = st.order[1:]
	}
}
