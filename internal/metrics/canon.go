// Canonical wire encoding of run summaries.
//
// A Summary is a pure function of its experiments.Key (the runs are
// deterministic simulations), which is what lets the campaign service
// cache summaries on disk content-addressed by key digest and promise
// byte-identical responses across restarts (DESIGN.md §14). That
// promise needs a byte-stable encoding, pinned here:
//
//   - encoding/json over the Summary struct itself: field order is the
//     declaration order, names are the Go field names (matching the
//     BENCH_*.json trajectory artifacts), and float64 values use Go's
//     shortest round-trip formatting, so decode∘encode is the identity
//     on the bytes as well as the values.
//   - The layout has no version of its own. ParseSummary rejects an
//     unknown field but zeroes a missing one, so an entry written before
//     a field was added still parses. The persistent cache's entryVersion
//     is what orphans such entries: internal/serve's
//     TestEntryVersionPinsCodecs pins the bytes of Summary{} beside it
//     and fails until a layout change bumps it.
//
// TestSummaryCanonicalPinned holds a prefix of the exact bytes.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// CanonicalJSON renders the summary's canonical wire encoding: one JSON
// object, fields in Summary declaration order, floats in shortest
// round-trip form. The encoding is byte-stable — equal summaries encode
// identically, and ParseSummary(enc) re-encodes to exactly enc — which
// is what makes a disk-cached summary byte-identical to a freshly
// computed one. An error is only possible for non-finite floats, which
// a well-formed Summary never contains.
func (s Summary) CanonicalJSON() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("metrics: summary has no canonical encoding: %w", err)
	}
	return b, nil
}

// ParseSummary decodes a canonical summary encoding. Unknown fields and
// trailing data are errors, so an entry written under a newer layout is
// refused instead of silently dropping columns; a missing field decodes
// as zero.
func ParseSummary(data []byte) (Summary, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Summary
	if err := dec.Decode(&s); err != nil {
		return Summary{}, fmt.Errorf("metrics: bad summary encoding: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Summary{}, fmt.Errorf("metrics: bad summary encoding: trailing data after the summary object")
	}
	return s, nil
}
