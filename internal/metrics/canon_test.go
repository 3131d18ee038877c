package metrics

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sampleSummary exercises every value class the codec must round-trip:
// negative-exponent floats, integers, and zero-valued optional counters.
func sampleSummary() Summary {
	return Summary{
		NumProcs:             8,
		WallClock:            1.2345678901234567,
		TotalIO:              0.1,
		TotalIOQueue:         0.030000000000000002,
		TotalComm:            3e-9,
		TotalCompute:         7.25,
		TotalIdle:            0,
		BlocksLoaded:         1689,
		BlocksPurged:         41,
		BlockEfficiency:      0.9757252812315,
		MsgsSent:             12345,
		BytesSent:            1 << 30,
		Steps:                1137235840,
		StreamlinesCompleted: 22000,
		PeakMemoryBytes:      356 << 20,
		IOHiddenTime:         0.5,
		ActivePeak:           321,
		ReleaseStallTime:     1e-15,
		Imbalance:            1.07,
	}
}

// TestSummaryCanonicalRoundTrip asserts decode∘encode is the identity
// on both values and bytes — the property the persistent result cache's
// byte-identical-across-restart promise rests on.
func TestSummaryCanonicalRoundTrip(t *testing.T) {
	s := sampleSummary()
	enc, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSummary(enc)
	if err != nil {
		t.Fatalf("ParseSummary rejected its own encoding: %v", err)
	}
	if got != s {
		t.Fatalf("decode∘encode is not the identity:\n got  %+v\n want %+v", got, s)
	}
	re, err := got.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(enc) {
		t.Fatalf("re-encode drifted:\n got  %s\n want %s", re, enc)
	}
}

// TestSummaryCanonicalPinned pins a prefix of the canonical bytes. If
// this fails the wire layout changed, and the persistent cache's
// entryVersion must change with it (internal/serve's
// TestEntryVersionPinsCodecs).
func TestSummaryCanonicalPinned(t *testing.T) {
	enc, err := Summary{NumProcs: 2, WallClock: 1.5, Steps: 10}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"NumProcs":2,"WallClock":1.5,"TotalIO":0,"TotalIOQueue":0,"TotalComm":0,"TotalCompute":0,"TotalIdle":0,`
	if !strings.HasPrefix(string(enc), want) {
		t.Errorf("canonical summary layout drifted:\n got  %.120s...\n want prefix %s", enc, want)
	}
	if !strings.Contains(string(enc), `"Steps":10`) {
		t.Errorf("canonical summary lost the Steps field: %s", enc)
	}
}

// TestSummaryCodecAllocs pins the codec's allocations on the cache-hit
// path: one for the encoding CanonicalJSON returns, none to parse.
func TestSummaryCodecAllocs(t *testing.T) {
	s := sampleSummary()
	enc, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { s.CanonicalJSON() }); n != 1 {
		t.Errorf("Summary.CanonicalJSON: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { ParseSummary(enc) }); n != 0 {
		t.Errorf("ParseSummary: %v allocations, want 0", n)
	}
}

// TestParseSummaryStrict states the decoder's contract: it accepts the
// canonical encoding and nothing else, so a cache entry whose summary
// bytes are not what CanonicalJSON writes is never served. Each row
// spells the sample summary, or something near it, another way.
func TestParseSummaryStrict(t *testing.T) {
	b, err := sampleSummary().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	enc := string(b)
	if _, err := ParseSummary(b); err != nil {
		t.Fatalf("ParseSummary rejected the canonical encoding: %v", err)
	}
	swap := func(old, new string) string {
		t.Helper()
		if !strings.Contains(enc, old) {
			t.Fatalf("the sample encoding has no %s", old)
		}
		return strings.Replace(enc, old, new, 1)
	}
	for _, tc := range []struct{ name, data string }{
		{"empty", ""},
		{"garbage", "not json"},
		{"trailing object", enc + "{}"},
		{"trailing brace", enc + "}"},
		{"trailing bracket", enc + " ]"},
		{"leading whitespace", " " + enc},
		{"trailing whitespace", enc + " \n"},
		{"inner whitespace", swap(`"NumProcs":8`, `"NumProcs": 8`)},
		{"fields out of order", swap(`{"NumProcs":8,"WallClock":1.2345678901234567`, `{"WallClock":1.2345678901234567,"NumProcs":8`)},
		{"case-folded name", swap(`"NumProcs"`, `"numprocs"`)},
		{"missing field", swap(`,"TotalIdle":0`, ``)},
		{"duplicate field", swap(`,"Steps":1137235840`, `,"Steps":1137235840,"Steps":1137235840`)},
		{"unknown field", swap(`,"Imbalance"`, `,"FutureColumn":1,"Imbalance"`)},
		{"null", swap(`"NumProcs":8`, `"NumProcs":null`)},
		{"1.0 for an int", swap(`"BlocksPurged":41`, `"BlocksPurged":41.0`)},
		{"1e0 for an int", swap(`"BlocksPurged":41`, `"BlocksPurged":41e0`)},
		{"plus sign", swap(`"NumProcs":8`, `"NumProcs":+8`)},
		{"leading zero", swap(`"NumProcs":8`, `"NumProcs":08`)},
		{"int overflow", swap(`"Steps":1137235840`, `"Steps":9223372036854775808`)},
		{"non-shortest float", swap(`"TotalIO":0.1,`, `"TotalIO":0.10000000000000001,`)},
		{"exponent float", swap(`"TotalIO":0.1,`, `"TotalIO":1e-1,`)},
		{"padded exponent", swap(`"TotalComm":3e-9`, `"TotalComm":3e-09`)},
		{"-0 for an int", swap(`"StealAttempts":0`, `"StealAttempts":-0`)},
	} {
		if _, err := ParseSummary([]byte(tc.data)); err == nil {
			t.Errorf("ParseSummary accepted the %s row", tc.name)
		}
	}
}

// FuzzSummaryEncoding holds the summary codec to encoding/json:
// every field is filled from the fuzz bytes, and CanonicalJSON writes
// exactly json.Marshal's bytes, or both fail (NaN and ±Inf).
func FuzzSummaryEncoding(f *testing.F) {
	fill := func(x uint64) []byte {
		return bytes.Repeat(binary.LittleEndian.AppendUint64(nil, x), reflect.TypeFor[Summary]().NumField())
	}
	// -0's bits are MinInt64's.
	for _, x := range []float64{math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(-1)} {
		f.Add(fill(math.Float64bits(x)))
	}
	f.Add(fill(math.MaxInt64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Summary
		v := reflect.ValueOf(&s).Elem()
		for i := range v.NumField() {
			var word [8]byte
			data = data[copy(word[:], data):]
			bits := binary.LittleEndian.Uint64(word[:])
			if fv := v.Field(i); fv.Kind() == reflect.Float64 {
				fv.SetFloat(math.Float64frombits(bits))
			} else {
				fv.SetInt(int64(bits))
			}
		}
		got, err := s.CanonicalJSON()
		want, jerr := json.Marshal(s)
		if (err != nil) != (jerr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("%+v:\nCanonicalJSON %s, %v\njson.Marshal  %s, %v", s, got, err, want, jerr)
		}
	})
}

// FuzzParseSummary feeds the cache reader's summary decoder hostile
// bytes: it must never panic, and whatever it accepts must re-encode
// through CanonicalJSON to exactly the bytes it was given.
func FuzzParseSummary(f *testing.F) {
	enc, err := sampleSummary().CanonicalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(append(slices.Clone(enc), '}'))
	f.Add([]byte(`{"NumProcs":2,"FutureColumn":1}`))
	f.Add([]byte(`{"NumProcs":2,"Steps":9223372036854775808}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSummary(data)
		if err != nil {
			return
		}
		re, err := s.CanonicalJSON()
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("accepted %q as %+v, which re-encodes to %s, %v", data, s, re, err)
		}
	})
}
