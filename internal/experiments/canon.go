// The campaign cache identity: the Key's wire layout and its rules.
//
// Every run is a deterministic function of its Key, so the canonical
// encoding of a Key digests to the address under which its Summary can
// be cached forever (DESIGN.md §14). internal/canon writes the bytes;
// this file owns what goes into them:
//
//   - NORMALIZED. Alias spellings ("off"/"t0"/"" all mean the zero
//     injection) collapse exactly as (Key).normalized does for the
//     in-memory result map, so one cell has one address.
//   - VALIDATED. An unknown axis value from the network is a decode
//     error, never a silently half-wired cell.
//   - VERSIONED. keyCodecVersion names the layout; a change to the field
//     set or the normalization rules bumps it.
//
// ParseKey alone stays lenient in its grammar (whitespace, any field
// order, a missing "v"): it is the network API. TestKeyFieldIdentity
// holds CanonicalJSON and ParseKey to the contract of the label
// renderer and the sweep enumerator: keys that differ in one field
// encode apart and each decodes back to itself (DESIGN.md §10, §14).
package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/prefetch"
)

// keyCodecVersion names the canonical Key wire layout. Bump it whenever
// a field is added, removed or renamed, or a normalization rule changes:
// persistent caches fold it into their entry addresses, so a bump
// atomically invalidates every entry written under the old rules.
const keyCodecVersion = "key/v1"

// keyWire is the canonical JSON layout of a Key. Field order is the
// declaration order, disabled optional axes are omitted entirely, and
// ParseKey rejects unknown fields — together that makes the encoding
// injective on normalized keys and stable across releases under the
// same keyCodecVersion.
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

// keyCodec is keyWire's field table.
var keyCodec = canon.For[keyWire]()

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

// minProcsError is Validate's refusal of a cell under the 2 processors
// its scenario needs: a hybrid cell needs a master and a slave, and the
// kill scenario takes processor 0, leaving none to finish the run — the
// cell would run fault-free under a kill label.
type minProcsError struct {
	scenario string
	procs    int
}

func (e *minProcsError) Error() string {
	return fmt.Sprintf("experiments: %s needs at least 2 processors, got %d", e.scenario, e.procs)
}

// Validate rejects keys that do not name a real campaign cell: unknown
// datasets, seedings, algorithms, axis spellings, a processor count
// outside [1, maxProcs], or a hybrid or kill cell under 2 processors.
// Alias spellings of the zero axes ("off", "t0") are valid —
// normalization, not validation, is their job.
func (k Key) Validate() error {
	if !slices.Contains(datasets(), k.Dataset) {
		return fmt.Errorf("experiments: unknown dataset %q (valid: astro, fusion, thermal)", k.Dataset)
	}
	if !slices.Contains(seedings(), k.Seeding) {
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
	if k.Alg == core.HybridMS && k.Procs < 2 {
		return &minProcsError{"the hybrid algorithm (a master and a slave)", k.Procs}
	}
	if k.Faults.Enabled() && k.Procs < 2 {
		return &minProcsError{"the kill scenario", k.Procs}
	}
	return nil
}

// CanonicalJSON renders the key's canonical wire encoding: normalized
// (alias spellings collapse exactly as the in-memory cache does),
// versioned (the leading "v" field is keyCodecVersion) and byte-stable
// (keyWire's bytes as internal/canon writes them, disabled axes
// omitted). Two keys have equal CanonicalJSON if and only if they name
// the same campaign cell, which is what makes sha256 over these bytes a
// safe cache address.
func (k Key) CanonicalJSON() []byte {
	n := k.normalized()
	w := keyWire{keyCodecVersion, string(n.Dataset), string(n.Seeding), string(n.Alg), n.Procs,
		n.Unsteady, string(n.Prefetch), string(n.Injection), string(n.Faults)}
	b, _ := keyCodec.Append(make([]byte, 0, 192), &w) // a keyWire has no float to fail
	return b
}

// Address returns the key's canonical encoding and its digest from one
// encoding: what a cache that files an entry under the digest and checks
// it against the encoding needs.
func (k Key) Address() (canonical []byte, digest string) {
	canonical = k.CanonicalJSON()
	sum := sha256.Sum256(canonical)
	return canonical, hex.EncodeToString(sum[:])
}

// Digest returns the key's content address: the lowercase hex SHA-256 of
// its canonical JSON encoding. Every alias spelling of a cell digests
// identically; every distinct cell digests differently.
func (k Key) Digest() string {
	_, digest := k.Address()
	return digest
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
	k := Key{Dataset(w.Dataset), Seeding(w.Seeding), core.Algorithm(w.Alg), w.Procs, w.Unsteady,
		prefetch.Policy(w.Prefetch), Injection(w.Injection), FaultMode(w.Faults)}
	if err := k.Validate(); err != nil {
		return Key{}, err
	}
	return k.normalized(), nil
}
