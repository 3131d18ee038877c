package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/prefetch"
)

// TestKeyAddressAllocs pins the allocations of the cache address every
// request computes: the canonical bytes and the digest's hex string. A
// canonical body is scanned in place and is its own canonical bytes, so
// its address costs the hex string alone.
func TestKeyAddressAllocs(t *testing.T) {
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8, Prefetch: prefetch.Neighbor}
	if n := testing.AllocsPerRun(100, func() { k.Address() }); n != 2 {
		t.Errorf("Key.Address: %v allocations, want 2", n)
	}
	body := k.CanonicalJSON()
	if n := testing.AllocsPerRun(100, func() { ParseKey(body) }); n != 0 {
		t.Errorf("ParseKey of a canonical body: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ParseAddress(body) }); n != 1 {
		t.Errorf("ParseAddress of a canonical body: %v allocations, want 1", n)
	}
	if got, canonical, digest, err := ParseAddress(body); err != nil || got != k || &canonical[0] != &body[0] || digest != k.Digest() {
		t.Errorf("ParseAddress(%s) = %+v, %s, %s, %v; want the key, the body itself and %s", body, got, canonical, digest, err, k.Digest())
	}
}

// TestCurvesCodecRoundTrip: internal/canon's table writes the small,
// default and paper Curves as json.Marshal does and reads each back
// unchanged, so a tape key or a fingerprint made of the Curves bytes
// needs no codec of its own. Every built-in Tol is at least 1e-6 and so
// spelled 'f'; a fourth Curves takes the 'e' spelling a tighter
// tolerance would.
func TestCurvesCodecRoundTrip(t *testing.T) {
	codec := canon.For[Curves]()
	tight := SmallScale().Curves
	tight.Tol = 1e-9
	all := []Curves{tight}
	for _, name := range []string{"small", "default", "paper"} {
		sc, _ := ScaleByName(name)
		all = append(all, sc.Curves)
	}
	for _, cv := range all {
		enc, err := codec.Append(nil, &cv)
		want, jerr := json.Marshal(cv)
		if err != nil || jerr != nil || !bytes.Equal(enc, want) {
			t.Fatalf("%+v:\nAppend       %s, %v\njson.Marshal %s, %v", cv, enc, err, want, jerr)
		}
		if got, err := codec.Parse(enc); err != nil || got != cv {
			t.Errorf("Parse(%s) = %+v, %v; want %+v", enc, got, err, cv)
		}
	}
	if enc, _ := codec.Append(nil, &tight); !bytes.Contains(enc, []byte(`"Tol":1e-9,`)) {
		t.Errorf("a Tol of 1e-9 is not spelled 1e-9: %s", enc)
	}
}

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
		Unsteady: true, Prefetch: prefetch.Both, Injection: injectBurst, Faults: faultsKill}
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
// version skew, trailing data, processor counts outside [1, maxProcs],
// and a hybrid or kill cell under the 2 processors it needs.
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
		// Processor 0 is the kill scenario's victim: at one processor the
		// cell would run fault-free under a kill label.
		{"kill at one processor", `{"dataset":"thermal","seeding":"sparse","alg":"ondemand","procs":1,"faults":"kill"}`, "at least 2 processors"},
		// A hybrid cell needs a master and a slave: at one processor it
		// used to run, fail in core, and be cached as a result.
		{"hybrid at one processor", `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":1}`, "at least 2 processors"},
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
	for _, k := range []Key{
		{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 1, Faults: faultsKill},
		{Dataset: Astro, Seeding: Sparse, Alg: core.HybridMS, Procs: 1},
	} {
		var me *minProcsError
		if err := k.Validate(); !errors.As(err, &me) {
			t.Errorf("Validate of %s = %v, want a *minProcsError", k.Label(), err)
		}
		if k.Procs = 2; k.Validate() != nil {
			t.Errorf("Validate of %s = %v, want nil", k.Label(), k.Validate())
		}
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
		// The canonical bytes take the scan, not the general decoder: a
		// scan that stopped matching would cost every hit its decode.
		if scanned, ok := scanKey(enc); !ok || scanned != k.normalized() {
			t.Fatalf("scanKey(%s) = %+v, %v; want %+v from the scan", enc, scanned, ok, k.normalized())
		}
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

// FuzzKeyScan holds ParseKey's two readers to one answer on any body.
// Whenever scanKey accepts, the general decoder returns the same key and
// that key's CanonicalJSON is the body byte for byte; whenever the
// general decoder returns a key whose CanonicalJSON is the body, the scan
// accepts it too. The seeds are near misses of a canonical body.
func FuzzKeyScan(f *testing.F) {
	canonical := `{"v":"key/v1","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`
	for _, seed := range []string{
		canonical,
		`{"v":"key/v1","dataset":"fusion","seeding":"dense","alg":"stealing","procs":4096,"unsteady":true,"prefetch":"both","injection":"burst","faults":"kill"}`,
		`{"v":"key/v1","dataset":"thermal","seeding":"dense","alg":"hybrid","procs":2,"prefetch":"temporal","injection":"rate"}`,
		`{"v":"key/v1","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":08}`,
		`{"v":"key/v1","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8,"unsteady":false}`,
		`{"v":"key/v1","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8,"injection":"off"}`,
		`{"v":"key/v1","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8,"prefetch":"off"}`,
		`{"v":"key/v1","dataset":"astr\u006f","seeding":"sparse","alg":"ondemand","procs":8}`,
		`{"v":"key/v1","Dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`,
		`{"v":"key/v1","dataset":"astro","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`,
		canonical + " ",
		`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}`,
		`{"v":"key/v1","dataset":"astro","seeding":"sparse","alg":"hybrid","procs":1}`,
		`{"v":"key/v1","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":4097}`,
		`{"v":"key/v1","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":123456}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scanned, ok := scanKey(data)
		decoded, err := parseKeyJSON(data)
		canonical := err == nil && bytes.Equal(decoded.CanonicalJSON(), data)
		if ok != canonical {
			t.Fatalf("scanKey(%q) ok=%v, but the general decoder reads a canonical body: %v", data, ok, canonical)
		}
		if ok && scanned != decoded {
			t.Fatalf("scanKey(%q) = %+v, the general decoder %+v", data, scanned, decoded)
		}
	})
}

// FuzzKeyEncoding holds the key encoding and the appended label to their
// references over arbitrary, unvalidated keys — quotes, <>&, control bytes,
// invalid UTF-8 and any processor count: CanonicalJSON must be
// json.Marshal of the normalized keyWire, Address must be that encoding
// and its SHA-256, and Label must be the fmt.Sprintf rendering it
// replaced.
func FuzzKeyEncoding(f *testing.F) {
	f.Add("astro", "sparse", "ondemand", 8, false, "", "", "")
	f.Add("fusion", "dense", "stealing", -32, true, "both", "burst", "kill")
	f.Add(`a"b\c`, "<sparse>", "a&b", 0, true, "off", "t0", "off")
	f.Add("\x00\x1f\x7f", "\u2028\u2029", "\xff\xfe", 1<<62, false, "psychic", "maybe", "zap")
	f.Add("ünïcode", "日本", "\t\n\r", -1<<63, true, "neighbor", "off", "")
	f.Fuzz(func(t *testing.T, ds, seeding, alg string, procs int, unsteady bool, pf, inj, fm string) {
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
		n := k.normalized()
		want, err := json.Marshal(keyWire{
			V:         keyCodecVersion,
			Dataset:   string(n.Dataset),
			Seeding:   string(n.Seeding),
			Alg:       string(n.Alg),
			Procs:     n.Procs,
			Unsteady:  n.Unsteady,
			Prefetch:  string(n.Prefetch),
			Injection: string(n.Injection),
			Faults:    string(n.Faults),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := k.CanonicalJSON(); !bytes.Equal(got, want) {
			t.Fatalf("CanonicalJSON of %+v:\n got  %s\n want %s", k, got, want)
		}
		sum := sha256.Sum256(want)
		if canon, digest := k.Address(); !bytes.Equal(canon, want) || digest != hex.EncodeToString(sum[:]) || k.Digest() != digest {
			t.Fatalf("Address of %+v = %s %s, want %s %x", k, canon, digest, want, sum)
		}
		if got, want := k.Label(), sprintfLabel(k); got != want {
			t.Fatalf("Label of %+v = %q, want %q", k, got, want)
		}
	})
}

// sprintfLabel is the fmt rendering Label replaced, kept as its oracle.
func sprintfLabel(k Key) string {
	prefix := ""
	if k.Unsteady {
		prefix = "u:"
	}
	suffix := ""
	if k.Injection.Enabled() {
		suffix += "+i:" + string(k.Injection)
	}
	if k.Prefetch.Enabled() {
		suffix += "+pf:" + string(k.Prefetch)
	}
	if k.Faults.Enabled() {
		suffix += "+f:" + string(k.Faults)
	}
	return fmt.Sprintf("%s%s/%s/%s/%d%s", prefix, k.Dataset, k.Seeding, k.Alg, k.Procs, suffix)
}
