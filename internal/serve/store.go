// The content-addressed result cache.
//
// Every campaign cell is a deterministic function of its
// experiments.Key, so a cell's outcome can be cached forever under the
// key's content address (the SHA-256 digest of its canonical JSON
// encoding, DESIGN.md §14). A Store keeps entries on one of two media,
// fixed when it is built. The directory medium is a plain tree —
//
//	<root>/<entryVersion>/<scope>/<digest[:2]>/<digest>.entry
//
// — with one entry file per cell, written atomically (temp file +
// rename) so a crashed or concurrent writer can never leave a torn
// entry behind. An entry file is framed, not a JSON document:
//
//	cell.v2 <scope> <canonical key>\n
//	<s> <e> <p>\n
//	<summary><error><percentiles>
//
// The head line is everything the address stands for. The frame line
// gives the byte lengths of the three payload values after it, each
// exactly what a response splices: the canonical summary or the
// JSON-quoted error (one of them empty), and the percentile block in
// observed scopes. The memory medium is a map under the same addresses
// that holds at most a fixed number of payload bytes and drops the
// oldest entry first. Scope separates cache populations that are NOT
// byte-comparable even for equal keys: the scale (different problem
// sizes) and whether the campaign ran with the observation recorder
// attached (observation is non-perturbing except for the documented
// TraceEvents/TraceBytes meta-counters, which do land in the Summary).
//
// Both media hold only what Put has validated. Directory reads are
// paranoid besides: a file whose head is not the one Put writes for the
// requested scope and key (another version, scope or cell), whose length
// disagrees with its frame (cut or extended at any byte), or whose
// payload Put would refuse is a cache miss, never served. Corruption —
// like eviction — can cost a recompute; it can never serve the wrong
// cell.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// entryVersion names the on-disk cache entry layout and opens every
// entry's head. It must change whenever the entry layout or the
// canonical bytes of experiments.Key or metrics.Summary change
// (TestEntryVersionPinsCodecs holds the codecs' bytes beside it);
// because it is a path component, a bump atomically orphans — rather
// than corrupts — every entry written under the old rules.
const entryVersion = "cell.v2"

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

// Entry is one cached cell outcome: the payload alone, since the
// version, the scope and the key are its address. Exactly one of Summary
// and Error is set, mirroring experiments.Outcome: deterministic
// failures (the static-allocation OOM, static's typed fault refusal) are
// results too, and caching them makes repeat failures as free as repeat
// successes.
type Entry struct {
	// Summary is the canonical metrics.Summary encoding
	// (metrics.CanonicalJSON). Responses splice these bytes verbatim,
	// which is what makes a cache hit byte-identical to the fresh
	// computation.
	Summary json.RawMessage
	// Percentiles is the cell's obs.Report block, present only in
	// observed scopes.
	Percentiles json.RawMessage
	// Error is the deterministic failure text for cells that cannot
	// complete (e.g. the paper's Figure 13 OOM).
	Error string
}

// valid reports whether Put accepts e: exactly one of summary and
// error, a summary the strict metrics.ParseSummary decodes, and
// percentiles that are JSON.
func (e *Entry) valid() bool {
	if (len(e.Summary) == 0) == (e.Error == "") {
		return false
	}
	if len(e.Summary) > 0 {
		if _, err := metrics.ParseSummary(e.Summary); err != nil {
			return false
		}
	}
	return len(e.Percentiles) == 0 || json.Valid(e.Percentiles)
}

// head renders the first line of k's entry file in scope sc: the layout
// version, the scope and the canonical key. Put writes it and Get
// compares it, so one comparison proves a file holds the entry asked
// for.
func head(sc Scope, k experiments.Key) []byte {
	key, dir := k.CanonicalJSON(), sc.dir()
	h := make([]byte, 0, len(entryVersion)+len(dir)+len(key)+3)
	h = append(h, entryVersion+" "...)
	h = append(h, dir...)
	h = append(h, ' ')
	h = append(h, key...)
	return append(h, '\n')
}

// encodeEntry appends e's frame line and payload values to its head.
func encodeEntry(head []byte, e Entry) []byte {
	var quoted []byte
	if e.Error != "" {
		quoted = appendString(nil, e.Error)
	}
	b := strconv.AppendInt(head, int64(len(e.Summary)), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(quoted)), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(e.Percentiles)), 10)
	b = append(b, '\n')
	b = append(b, e.Summary...)
	b = append(b, quoted...)
	return append(b, e.Percentiles...)
}

// decodeEntry reads an entry file that must open with head. Its payload
// values alias data.
func decodeEntry(data, head []byte) (Entry, bool) {
	rest, ok := bytes.CutPrefix(data, head)
	if !ok {
		return Entry{}, false
	}
	frame, rest, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return Entry{}, false
	}
	n, ok := parseFrame(frame, len(rest))
	if !ok || n[0]+n[1]+n[2] != len(rest) {
		return Entry{}, false
	}
	var v [3][]byte
	for i, l := range n {
		if l > 0 {
			v[i] = rest[:l:l]
		}
		rest = rest[l:]
	}
	e := Entry{Summary: v[0], Percentiles: v[2]}
	if v[1] != nil && (json.Unmarshal(v[1], &e.Error) != nil || e.Error == "") {
		return Entry{}, false
	}
	if !e.valid() {
		return Entry{}, false
	}
	return e, true
}

// parseFrame reads a frame line: three decimal lengths, each at most
// limit, separated by single spaces. Signs, empty or extra fields and
// any other byte are not a frame.
func parseFrame(line []byte, limit int) (n [3]int, ok bool) {
	f, digits := 0, 0
	for _, c := range line {
		switch {
		case c == ' ' && digits > 0 && f < len(n)-1:
			f, digits = f+1, 0
		case '0' <= c && c <= '9':
			n[f] = n[f]*10 + int(c-'0')
			digits++
			if n[f] > limit {
				return n, false
			}
		default:
			return n, false
		}
	}
	return n, f == len(n)-1 && digits > 0
}

// Store is the result cache, on the medium its constructor chose: a
// directory (OpenStore) or a bounded in-process map (newMemStore). The
// zero value is unusable. A Store is safe for concurrent use: directory
// writes are atomic renames and reads verify what they find; the map is
// behind a lock that a hit only read-locks.
type Store struct {
	tier string // what Row.Source calls a hit: "disk" or "memory"
	root string // the directory medium's root

	// The memory medium: payloads in mem, their addresses oldest first
	// in order, size payload bytes in all and never more than limit.
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
	return filepath.Join(st.root, entryVersion, sc.dir(), digest[:2], digest+".entry")
}

// Get looks up the cached outcome of k in scope sc. Missing, evicted,
// torn, stale-versioned, misplaced and tampered entries all report a
// miss; the only error condition is an I/O failure other than
// non-existence. Both media return the payload alone; its bytes are
// shared — with every other hit on the memory medium — so do not modify
// them.
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
	e, ok := decodeEntry(data, head(sc, k))
	return e, ok, nil
}

// Put caches the outcome of k in scope sc: the payload (Summary or
// Error, plus Percentiles in observed scopes), whose bytes the caller
// leaves alone afterwards — the memory medium keeps them. A directory
// write is atomic: concurrent Puts of the same (deterministic) outcome
// are harmless last-writer-wins renames.
func (st *Store) Put(sc Scope, k experiments.Key, e Entry) error {
	if !e.valid() {
		return fmt.Errorf("serve: refusing to cache malformed entry for %s (need exactly one of summary/error, a canonical summary and JSON percentiles)", k.Label())
	}
	digest := k.Digest()
	if st.mem != nil {
		st.putMem(memAddr{sc, digest}, e)
		return nil
	}
	data := encodeEntry(head(sc, k), e)
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
