// Canonical wire encoding of the campaign cache identity.
//
// Every run is a deterministic function of its Key, which makes each
// result content-addressable: the canonical JSON encoding of a Key
// digests to the address under which its Summary can be cached forever
// (internal/serve's persistent store, DESIGN.md §14). The encoding is
// therefore a contract, not a convenience:
//
//   - It is NORMALIZED. The axes accept alias spellings at the flag and
//     API surface ("off"/"t0"/"" all mean the zero injection), and the
//     encoder collapses them exactly the way (Key).normalized does for
//     the in-memory result map. A decode path that preserved aliases
//     would split one cell across several cache addresses — or, worse,
//     let two different requests collide on one.
//   - It is VALIDATED. Keys arriving from the network are untrusted;
//     an unknown axis value must be a decode error, never a silently
//     half-wired cell. (Before ParseKey existed, a FaultMode like
//     "zap" would have RUN as "kill" while caching under its own
//     identity — the alias/split bug class this file closes.)
//   - It is VERSIONED. keyCodecVersion names the layout; any change to
//     the field set or normalization rules must bump it so persistent
//     caches cannot serve entries written under other rules.
//
// TestKeyFieldIdentity holds CanonicalJSON and ParseKey to the same
// contract as the label renderer and the sweep enumerator: two keys that
// differ in any one field encode apart and each decodes back to itself,
// so an axis added without wiring it through the wire format fails a
// test (DESIGN.md §10, §14).
package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/prefetch"
)

// keyCodecVersion names the canonical Key wire layout. Bump it whenever
// a field is added, removed or renamed, or a normalization rule changes:
// persistent caches fold it into their entry addresses, so a bump
// atomically invalidates every entry written under the old rules.
const keyCodecVersion = "key/v1"

// keyWire is the canonical JSON layout of a Key. Field order is the
// declaration order (encoding/json preserves it), disabled optional axes
// are omitted entirely, and ParseKey rejects unknown fields — together
// that makes the encoding injective on normalized keys and stable across
// releases under the same keyCodecVersion.
type keyWire struct {
	V         string `json:"v"`
	Dataset   string `json:"dataset"`
	Seeding   string `json:"seeding"`
	Alg       string `json:"alg"`
	Procs     int    `json:"procs"`
	Unsteady  bool   `json:"unsteady,omitempty"`
	Prefetch  string `json:"prefetch,omitempty"`
	Injection string `json:"injection,omitempty"`
	Faults    string `json:"faults,omitempty"`
}

// maxProcs bounds a cell's processor count. Every scale's sweep stays
// at or under 512; a count far above it would only ask the machine
// model for more memory than the host has, an unrecoverable fault.
const maxProcs = 4096

// procsError is Validate's refusal of a processor count outside
// [1, maxProcs].
type procsError struct{ procs int }

func (e *procsError) Error() string {
	if e.procs < 1 {
		return fmt.Sprintf("experiments: need at least 1 processor, got %d", e.procs)
	}
	return fmt.Sprintf("experiments: %d processors is over the limit of %d", e.procs, maxProcs)
}

// killProcsError is Validate's refusal of a kill cell under 2
// processors: the kill scenario takes processor 0, so none would be left
// to finish the run, and the cell would run fault-free under a kill
// label.
type killProcsError struct{ procs int }

func (e *killProcsError) Error() string {
	return fmt.Sprintf("experiments: the kill scenario needs at least 2 processors, got %d", e.procs)
}

// Validate rejects keys that do not name a real campaign cell: unknown
// datasets, seedings, algorithms, axis spellings, a processor count
// outside [1, maxProcs], or a kill cell with no processor to survive. Alias spellings of the zero axes ("off", "t0")
// are valid — normalization, not validation, is their job.
func (k Key) Validate() error {
	if !slices.Contains(datasets(), k.Dataset) {
		return fmt.Errorf("experiments: unknown dataset %q (valid: astro, fusion, thermal)", k.Dataset)
	}
	if !slices.Contains(Seedings(), k.Seeding) {
		return fmt.Errorf("experiments: unknown seeding %q (valid: sparse, dense)", k.Seeding)
	}
	if !slices.Contains(core.Algorithms(), k.Alg) {
		return fmt.Errorf("experiments: unknown algorithm %q (valid: static, ondemand, hybrid, stealing)", k.Alg)
	}
	if k.Procs < 1 || k.Procs > maxProcs {
		return &procsError{k.Procs}
	}
	if err := k.Prefetch.Validate(); err != nil {
		return err
	}
	if err := k.Injection.Validate(); err != nil {
		return err
	}
	if err := k.Faults.Validate(); err != nil {
		return err
	}
	if k.Faults.Enabled() && k.Procs < 2 {
		return &killProcsError{k.Procs}
	}
	return nil
}

// CanonicalJSON renders the key's canonical wire encoding: normalized
// (alias spellings collapse exactly as the in-memory cache does),
// versioned (the leading "v" field is keyCodecVersion) and byte-stable
// (fixed field order, disabled axes omitted). Two keys have equal
// CanonicalJSON if and only if they name the same campaign cell, which
// is what makes sha256 over these bytes a safe cache address.
func (k Key) CanonicalJSON() []byte {
	n := k.normalized()
	w := keyWire{
		V:         keyCodecVersion,
		Dataset:   string(n.Dataset),
		Seeding:   string(n.Seeding),
		Alg:       string(n.Alg),
		Procs:     n.Procs,
		Unsteady:  n.Unsteady,
		Prefetch:  string(n.Prefetch),
		Injection: string(n.Injection),
		Faults:    string(n.Faults),
	}
	b, err := json.Marshal(w)
	if err != nil {
		// keyWire is strings, an int and a bool; Marshal cannot fail.
		panic(fmt.Sprintf("experiments: canonical key encoding failed: %v", err))
	}
	return b
}

// Digest returns the key's content address: the lowercase hex SHA-256 of
// its canonical JSON encoding. Every alias spelling of a cell digests
// identically; every distinct cell digests differently.
func (k Key) Digest() string {
	sum := sha256.Sum256(k.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

// ParseKey decodes a key from its wire encoding — the request-decode
// path of the campaign service. The decode is strict: unknown fields,
// trailing data, codec-version mismatches and invalid axis values are
// all errors, because a silently tolerated request field is a silently
// unkeyed axis. Alias spellings are accepted and normalized, so for any
// key k, ParseKey(k.CanonicalJSON()) returns exactly k.normalized() —
// decode∘encode is the identity on canonical keys (FuzzKeyRoundTrip).
// A missing "v" field is accepted as the current keyCodecVersion so
// hand-written request cells stay terse.
func ParseKey(data []byte) (Key, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w keyWire
	if err := dec.Decode(&w); err != nil {
		return Key{}, fmt.Errorf("experiments: bad key encoding: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Key{}, fmt.Errorf("experiments: bad key encoding: trailing data after the key object")
	}
	if w.V != "" && w.V != keyCodecVersion {
		return Key{}, fmt.Errorf("experiments: key codec version mismatch: got %q, this build speaks %q", w.V, keyCodecVersion)
	}
	k := Key{
		Dataset:   Dataset(w.Dataset),
		Seeding:   Seeding(w.Seeding),
		Alg:       core.Algorithm(w.Alg),
		Procs:     w.Procs,
		Unsteady:  w.Unsteady,
		Prefetch:  prefetch.Policy(w.Prefetch),
		Injection: Injection(w.Injection),
		Faults:    FaultMode(w.Faults),
	}
	if err := k.Validate(); err != nil {
		return Key{}, err
	}
	return k.normalized(), nil
}
