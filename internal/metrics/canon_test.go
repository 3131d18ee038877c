package metrics

import (
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

// TestParseSummaryStrict proves layout skew is detected, not silently
// tolerated: a field the current Summary does not declare is an error.
func TestParseSummaryStrict(t *testing.T) {
	if _, err := ParseSummary([]byte(`{"NumProcs":2,"FutureColumn":1}`)); err == nil {
		t.Error("ParseSummary accepted an unknown field")
	}
	// The closing delimiters are what json.Decoder.More answers false to.
	for _, tail := range []string{"{}", "}", "]", " ]"} {
		if _, err := ParseSummary([]byte(`{"NumProcs":2}` + tail)); err == nil {
			t.Errorf("ParseSummary accepted trailing data %q", tail)
		}
	}
	if _, err := ParseSummary([]byte(`{"NumProcs":2}` + " \n")); err != nil {
		t.Errorf("ParseSummary rejected trailing whitespace: %v", err)
	}
	if _, err := ParseSummary([]byte(`not json`)); err == nil {
		t.Error("ParseSummary accepted garbage")
	}
}

// FuzzParseSummary feeds the cache reader's summary decoder hostile
// bytes: it must never panic, and whatever it accepts must re-encode
// through CanonicalJSON and parse back to the same value.
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
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode it: %v", data, err)
		}
		back, err := ParseSummary(re)
		if err != nil || back != s {
			t.Fatalf("accepted %q as %+v, re-encoded %s, parsed back %+v, %v", data, s, re, back, err)
		}
	})
}
