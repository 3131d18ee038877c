package experiments

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
)

// TestCanonicalJSONPinned pins the exact canonical bytes of two sample
// keys. These bytes are a persistence contract: if this test fails, the
// wire layout changed and keyCodecVersion MUST be bumped (which
// invalidates every persistent cache entry) rather than the goldens
// silently updated.
func TestCanonicalJSONPinned(t *testing.T) {
	minimal := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8}
	wantMin := `{"v":"key/v1","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`
	if got := string(minimal.CanonicalJSON()); got != wantMin {
		t.Errorf("minimal key canonical JSON drifted:\n got  %s\n want %s", got, wantMin)
	}
	full := Key{Dataset: Fusion, Seeding: Dense, Alg: core.WorkStealing, Procs: 32,
		Unsteady: true, Prefetch: prefetch.Both, Injection: InjectBurst, Faults: FaultsKill}
	wantFull := `{"v":"key/v1","dataset":"fusion","seeding":"dense","alg":"stealing","procs":32,"unsteady":true,"prefetch":"both","injection":"burst","faults":"kill"}`
	if got := string(full.CanonicalJSON()); got != wantFull {
		t.Errorf("full key canonical JSON drifted:\n got  %s\n want %s", got, wantFull)
	}
}

// TestKeyAliasesShareOneDigest proves every accepted spelling of a cell
// digests to one cache address: an alias that digested differently would
// silently split the persistent cache (or alias two tenants' cells).
func TestKeyAliasesShareOneDigest(t *testing.T) {
	base := Key{Dataset: Astro, Seeding: Sparse, Alg: core.HybridMS, Procs: 16}
	canon := base.Digest()
	aliases := []Key{
		{Dataset: Astro, Seeding: Sparse, Alg: core.HybridMS, Procs: 16, Prefetch: prefetch.Off},
		{Dataset: Astro, Seeding: Sparse, Alg: core.HybridMS, Procs: 16, Injection: "t0"},
		{Dataset: Astro, Seeding: Sparse, Alg: core.HybridMS, Procs: 16, Injection: "off"},
		{Dataset: Astro, Seeding: Sparse, Alg: core.HybridMS, Procs: 16, Faults: "off"},
		{Dataset: Astro, Seeding: Sparse, Alg: core.HybridMS, Procs: 16,
			Prefetch: prefetch.Off, Injection: "t0", Faults: "off"},
	}
	for _, a := range aliases {
		if err := a.Validate(); err != nil {
			t.Fatalf("alias %+v should validate: %v", a, err)
		}
		if got := a.Digest(); got != canon {
			t.Errorf("alias %+v digests to %s, canonical spelling to %s: cache split", a, got, canon)
		}
	}
	// And a genuinely different cell must not collide.
	other := base
	other.Procs = 32
	if other.Digest() == canon {
		t.Error("distinct cells share a digest")
	}
}

// TestParseKeyRejects enumerates the network-input failure modes the
// strict decoder must catch: unknown axis values (which pre-ParseKey
// would have half-run as their nearest real axis), unknown fields,
// version skew, trailing data, and processor counts outside
// [1, maxProcs].
func TestParseKeyRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown dataset", `{"dataset":"galaxy","seeding":"sparse","alg":"hybrid","procs":8}`, "unknown dataset"},
		{"unknown seeding", `{"dataset":"astro","seeding":"medium","alg":"hybrid","procs":8}`, "unknown seeding"},
		{"unknown algorithm", `{"dataset":"astro","seeding":"sparse","alg":"magic","procs":8}`, "unknown algorithm"},
		{"zero procs", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":0}`, "at least 1 processor"},
		{"negative procs", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":-4}`, "at least 1 processor"},
		// A count the host cannot allocate a machine for is refused here,
		// never run out of memory.
		{"procs over the limit", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":4097}`, "over the limit of 4096"},
		{"hostile procs", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":200000000}`, "over the limit"},
		{"bad prefetch", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":8,"prefetch":"psychic"}`, "unknown policy"},
		{"bad injection", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":8,"injection":"maybe"}`, "unknown injection"},
		// The alias/split bug class: "zap" used to materialize the kill
		// plan while caching under its own identity.
		{"bad faults", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":8,"faults":"zap"}`, "unknown fault mode"},
		{"unknown field", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":8,"tenant":"eve"}`, "unknown field"},
		{"version skew", `{"v":"key/v999","dataset":"astro","seeding":"sparse","alg":"hybrid","procs":8}`, "codec version mismatch"},
		{"trailing data", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":8}{}`, "trailing data"},
		// Closing delimiters are what json.Decoder.More answers false to.
		{"trailing brace", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":8}}`, "trailing data"},
		{"trailing bracket", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":8}]`, "trailing data"},
		{"trailing spaced bracket", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":8} ]`, "trailing data"},
		{"not json", `procs=8`, "bad key encoding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseKey([]byte(tc.in))
			if err == nil {
				t.Fatalf("ParseKey(%s) accepted bad input", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseKey(%s) error %q does not mention %q", tc.in, err, tc.wantErr)
			}
		})
	}
	// The bound is typed, and every scale's sweep fits under it.
	var pe *procsError
	if err := (Key{Dataset: Astro, Seeding: Sparse, Alg: core.HybridMS, Procs: maxProcs + 1}).Validate(); !errors.As(err, &pe) {
		t.Errorf("Validate with %d processors = %v, want a *procsError", maxProcs+1, err)
	}
	for _, name := range []string{"small", "default", "paper"} {
		sc, _ := ScaleByName(name)
		if n := slices.Max(sc.ProcCounts); n > maxProcs {
			t.Errorf("scale %s sweeps %d processors, over maxProcs %d", name, n, maxProcs)
		}
	}
}

// TestParseKeyNormalizesAliases proves the decode path collapses alias
// spellings exactly like the encode path: decoded aliases are the
// canonical key, not a distinct one.
func TestParseKeyNormalizesAliases(t *testing.T) {
	canon := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8}
	ins := []string{
		`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`,
		`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8,"prefetch":"off"}`,
		`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8,"injection":"t0"}`,
		`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8,"injection":"off","faults":"off"}`,
		`{"v":"key/v1","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`,
	}
	for _, in := range ins {
		k, err := ParseKey([]byte(in))
		if err != nil {
			t.Fatalf("ParseKey(%s): %v", in, err)
		}
		if k != canon {
			t.Errorf("ParseKey(%s) = %+v, want the canonical key %+v (alias decoded to a distinct key: silent cache split)", in, k, canon)
		}
	}
}

// FuzzKeyRoundTrip asserts the codec's two identities over arbitrary
// axis spellings:
//
//  1. decode∘encode is the identity on canonical keys: for every valid
//     key k, ParseKey(k.CanonicalJSON()) == k.normalized().
//  2. alias spellings normalize to one digest: a valid key and its
//     normalized form always share CanonicalJSON bytes (and therefore a
//     cache address).
//
// Invalid keys must fail Validate symmetrically with ParseKey: an input
// the validator rejects that the decoder would accept (or vice versa)
// is an asymmetry between the in-process and network identity rules.
//
// tail is appended to the canonical encoding before it is decoded: JSON
// whitespace changes nothing, anything else is trailing data and an
// error — the closing delimiters included.
func FuzzKeyRoundTrip(f *testing.F) {
	f.Add("astro", "sparse", "ondemand", 8, false, "", "", "", "")
	f.Add("fusion", "dense", "stealing", 32, true, "both", "burst", "kill", " \n")
	f.Add("thermal", "dense", "static", 1, false, "off", "t0", "off", "}")
	f.Add("astro", "sparse", "hybrid", 64, true, "temporal", "rate", "", "]")
	f.Add("astro", "sparse", "ondemand", 8, false, "", "", "", " ]")
	f.Add("galaxy", "sparse", "hybrid", 8, false, "psychic", "maybe", "zap", "")
	f.Add("astro", "sparse", "hybrid", 0, false, "", "off", "", "")
	f.Add("astro", "sparse", "hybrid", 200000000, false, "", "", "", "")
	f.Fuzz(func(t *testing.T, ds, seeding, alg string, procs int, unsteady bool, pf, inj, fm, tail string) {
		k := Key{
			Dataset:   Dataset(ds),
			Seeding:   Seeding(seeding),
			Alg:       core.Algorithm(alg),
			Procs:     procs,
			Unsteady:  unsteady,
			Prefetch:  prefetch.Policy(pf),
			Injection: Injection(inj),
			Faults:    FaultMode(fm),
		}
		if err := k.Validate(); err != nil {
			// Invalid keys must also be un-decodable: their canonical
			// encoding (which normalizes blindly) must never round-trip
			// into a DIFFERENT valid key than validation rules imply.
			// Nothing further to assert — ParseKey runs Validate itself.
			return
		}
		enc := k.CanonicalJSON()
		got, err := ParseKey(append(slices.Clone(enc), tail...))
		if strings.Trim(tail, " \t\r\n") != "" {
			if err == nil {
				t.Fatalf("ParseKey accepted %s followed by %q", enc, tail)
			}
			return
		}
		if err != nil {
			t.Fatalf("ParseKey rejected its own canonical encoding %s (followed by %q): %v", enc, tail, err)
		}
		want := k.normalized()
		if got != want {
			t.Fatalf("decode∘encode is not the identity: %s decoded to %+v, want %+v", enc, got, want)
		}
		// Aliases collapse: the raw and normalized spellings must share
		// one encoding, hence one digest.
		if string(enc) != string(want.CanonicalJSON()) {
			t.Fatalf("alias spelling %+v encodes to %s but its canonical form to %s: cache split", k, enc, want.CanonicalJSON())
		}
		if k.Digest() != want.Digest() {
			t.Fatalf("alias spelling %+v digests apart from its canonical form", k)
		}
		// Re-encoding the decoded key must be byte-stable (idempotent).
		if string(got.CanonicalJSON()) != string(enc) {
			t.Fatalf("re-encode of decoded key drifted: %s vs %s", got.CanonicalJSON(), enc)
		}
		if got.Label() != want.Label() {
			t.Fatalf("decoded key renders label %q, canonical %q", got.Label(), want.Label())
		}
	})
}
