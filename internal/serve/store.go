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
//	cell.v3 <scope> <canonical key>\n
//	<s> <e>\n
//	<summary><error>
//
// The head line is everything the address stands for. The frame line
// gives the byte lengths of the two payload values after it, each
// exactly what a response splices: the canonical summary or the
// JSON-quoted error, one of them empty. The memory medium is a map
// under the same addresses that holds at most a fixed number of payload
// bytes and drops the oldest entry first. Scope separates cache
// populations that are NOT byte-comparable even for equal keys: the
// scale, which sizes every problem.
//
// Both media hold only what Put has validated: a summary that is the
// canonical encoding, byte for byte, so a hit splices exactly what a
// fresh computation responds with. Directory reads are paranoid
// besides: a file larger than maxEntryBytes (never read), one whose
// head is not the one Put writes for the requested scope and key
// (another version, scope or cell), whose length disagrees with its
// frame (cut or extended at any byte), whose payload Put would refuse,
// or whose error value is not the bytes Put quotes it as, is a cache
// miss, never served. Corruption — like eviction — can cost a
// recompute; it can never serve the wrong cell.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// entryVersion names the on-disk cache entry layout and opens every
// entry's head. It must change whenever the entry layout or the
// canonical bytes of experiments.Key or metrics.Summary change
// (TestEntryVersionPinsCodecs holds the codecs' bytes beside it);
// because it is a path component, a bump atomically orphans — rather
// than corrupts — every entry written under the old rules.
const entryVersion = "cell.v3"

// Scope names one cache population: entries are only byte-comparable
// within a scale.
type Scope struct {
	// Scale is the campaign scale name ("small", "default", "paper"),
	// the scope's path component. The scale shapes every problem, so
	// identical keys at different scales are different cells.
	Scale string
}

// Entry is one cached cell outcome: the payload alone, since the
// version, the scope and the key are its address. Exactly one of Summary
// and Error is set, mirroring experiments.Outcome: deterministic
// failures (the static-allocation OOM, static's typed fault refusal) are
// results too, and caching them makes repeat failures as free as repeat
// successes.
type Entry struct {
	// Summary is the canonical metrics.Summary encoding
	// (Summary.CanonicalJSON). Responses splice these bytes verbatim,
	// which is what makes a cache hit byte-identical to the fresh
	// computation.
	Summary json.RawMessage
	// Error is the deterministic failure text for cells that cannot
	// complete (e.g. the paper's Figure 13 OOM).
	Error string
}

// valid reports whether Put accepts e: exactly one of summary and
// error, and a summary that is the canonical encoding
// metrics.ParseSummary accepts. So every payload a hit splices is byte
// for byte what a fresh computation responds with.
func (e *Entry) valid() bool {
	if (len(e.Summary) == 0) == (e.Error == "") {
		return false
	}
	if len(e.Summary) > 0 {
		_, err := metrics.ParseSummary(e.Summary)
		return err == nil
	}
	return true
}

// head renders the first line of an entry file in scope sc for the
// canonical key encoding key: the layout version, the scope and the key.
// Put writes it and Get compares it, so one comparison proves a file
// holds the entry asked for.
func head(sc Scope, key []byte) []byte {
	h := make([]byte, 0, len(entryVersion)+len(sc.Scale)+len(key)+3)
	h = append(h, entryVersion+" "...)
	h = append(h, sc.Scale...)
	h = append(h, ' ')
	h = append(h, key...)
	return append(h, '\n')
}

// encodeEntry appends e's frame line and payload values to its head.
func encodeEntry(head []byte, e Entry) []byte {
	var quoted []byte
	if e.Error != "" {
		quoted = canon.Quote(nil, e.Error)
	}
	b := strconv.AppendInt(head, int64(len(e.Summary)), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(quoted)), 10)
	b = append(b, '\n')
	b = append(b, e.Summary...)
	return append(b, quoted...)
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
	if !ok || n[0]+n[1] != len(rest) {
		return Entry{}, false
	}
	var e Entry
	if n[0] > 0 {
		e.Summary = rest[:n[0]:n[0]]
	}
	// The error value, like the summary, must be the bytes Put writes for
	// it. Only an error entry pays for the text it decodes to.
	if errValue := rest[n[0]:]; n[1] > 0 {
		var text string
		var quoted [256]byte // room for a failure's text, so a hit allocates no more
		if json.Unmarshal(errValue, &text) != nil || text == "" || !bytes.Equal(canon.Quote(quoted[:0], text), errValue) {
			return Entry{}, false
		}
		e.Error = text
	}
	if !e.valid() {
		return Entry{}, false
	}
	return e, true
}

// parseFrame reads a frame line: two decimal lengths, each at most
// limit, separated by a single space. Signs, empty or extra fields and
// any other byte are not a frame.
func parseFrame(line []byte, limit int) (n [2]int, ok bool) {
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
	return filepath.Join(st.root, entryVersion, sc.Scale, digest[:2], digest+".entry")
}

// Get looks up the cached outcome of k in scope sc. Missing, evicted,
// torn, stale-versioned, misplaced and tampered entries all report a
// miss; the only error condition is an I/O failure other than
// non-existence. Both media return the payload alone; its bytes are
// shared — with every other hit on the memory medium — so do not modify
// them.
func (st *Store) Get(sc Scope, k experiments.Key) (Entry, bool, error) {
	key, digest := k.Address()
	return st.get(sc, key, digest)
}

// get is Get for a key whose canonical encoding and digest the caller
// already has: a request's parse returns them, the encoding often the
// request body itself.
func (st *Store) get(sc Scope, key []byte, digest string) (Entry, bool, error) {
	if st.mem != nil {
		st.mu.RLock()
		e, ok := st.mem[memAddr{sc, digest}]
		st.mu.RUnlock()
		return e, ok, nil
	}
	f, err := os.Open(st.path(sc, digest))
	if err != nil {
		if os.IsNotExist(err) {
			return Entry{}, false, nil
		}
		return Entry{}, false, fmt.Errorf("serve: cache read: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return Entry{}, false, fmt.Errorf("serve: cache read: %w", err)
	}
	if info.Size() > maxEntryBytes { // Put writes none; never read one
		return Entry{}, false, nil
	}
	data := make([]byte, info.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return Entry{}, false, fmt.Errorf("serve: cache read: %w", err)
	}
	e, ok := decodeEntry(data, head(sc, key))
	return e, ok, nil
}

// maxEntryBytes bounds an entry file, so a planted or corrupt file
// cannot make a read allocate its size. A summary is under a kilobyte;
// the bound leaves it room many times over and is a thousandth of what
// the memory medium holds.
const maxEntryBytes = memCacheBytes / 1024

// Put caches the outcome of k in scope sc: the payload (Summary or
// Error), whose bytes the caller leaves alone afterwards — the memory
// medium keeps them. A directory write is atomic: concurrent Puts of
// the same (deterministic) outcome are harmless last-writer-wins
// renames. An entry file over maxEntryBytes is refused, since a read
// would take it for a miss forever.
func (st *Store) Put(sc Scope, k experiments.Key, e Entry) error {
	if !e.valid() {
		return fmt.Errorf("serve: refusing to cache malformed entry for %s (need exactly one of summary/error and a canonical summary)", k.Label())
	}
	key, digest := k.Address()
	if st.mem != nil {
		st.putMem(memAddr{sc, digest}, e)
		return nil
	}
	data := encodeEntry(head(sc, key), e)
	if len(data) > maxEntryBytes {
		return fmt.Errorf("serve: refusing to cache a %d-byte entry for %s: over the %d bytes a read accepts", len(data), k.Label(), maxEntryBytes)
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
	payload := func(e Entry) int { return len(e.Summary) + len(e.Error) }
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
