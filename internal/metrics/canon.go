// Canonical wire encoding of run summaries.
//
// A Summary is a pure function of its experiments.Key (the runs are
// deterministic simulations), which is what lets the campaign service
// cache summaries on disk content-addressed by key digest and promise
// byte-identical responses across restarts (DESIGN.md §14). The bytes
// are internal/canon's: those encoding/json writes for the Summary
// struct, field names the Go names (matching the BENCH_*.json trajectory
// artifacts), and ParseSummary accepts those bytes and no others.
// FuzzSummaryEncoding holds the codec to json.Marshal.
//
// The layout has no version of its own. The persistent cache's
// entryVersion orphans entries written under an older layout (which
// ParseSummary refuses anyway): internal/serve's
// TestEntryVersionPinsCodecs pins the bytes of Summary{} beside it and
// fails until a layout change bumps it. TestSummaryCanonicalPinned holds
// a prefix of the exact bytes.
package metrics

import (
	"bytes"

	"repro/internal/canon"
)

// summaryCodec is Summary's field table.
var summaryCodec = canon.For[Summary]()

// CanonicalJSON renders the summary's canonical wire encoding: one JSON
// object, fields in Summary declaration order, floats in shortest
// round-trip form. The encoding is byte-stable — equal summaries encode
// identically, and ParseSummary(enc) re-encodes to exactly enc — which
// is what makes a disk-cached summary byte-identical to a freshly
// computed one. An error is only possible for non-finite floats, which
// a well-formed Summary never contains.
func (s Summary) CanonicalJSON() ([]byte, error) {
	var buf [2048]byte // past the longest encoding (~1.4 KB), so one allocation
	// On error Append returns nil, and its clone is nil too.
	b, err := summaryCodec.Append(buf[:0], &s)
	return bytes.Clone(b), err
}

// ParseSummary decodes a canonical summary encoding and accepts nothing
// else: each field in order, each number exactly as CanonicalJSON writes
// it, and no byte after the closing brace. So an entry written under
// another layout, or whose bytes a response could not splice as a fresh
// computation's, is refused.
func ParseSummary(data []byte) (Summary, error) {
	return summaryCodec.Parse(data)
}
