package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/vec"
)

func TestNewStreamline(t *testing.T) {
	s := New(7, vec.Of(1, 2, 3), grid.BlockID(4))
	if s.ID != 7 || s.Seed != vec.Of(1, 2, 3) || s.Block != 4 {
		t.Errorf("fields wrong: %+v", s)
	}
	if s.P != s.Seed {
		t.Error("head must start at seed")
	}
	if s.Verts != 1 || len(s.Points) != 1 || s.Points[0] != s.Seed {
		t.Error("geometry must start with seed")
	}
	if s.Status != Active {
		t.Errorf("Status = %v", s.Status)
	}
}

func TestAppendMovesHead(t *testing.T) {
	s := New(0, vec.Of(0, 0, 0), 0)
	s.Append([]vec.V3{vec.Of(1, 0, 0), vec.Of(2, 0, 0)})
	if s.P != vec.Of(2, 0, 0) {
		t.Errorf("P = %v", s.P)
	}
	if len(s.Points) != 3 || s.Verts != 3 || s.Prev != vec.Of(1, 0, 0) {
		t.Errorf("points = %d, verts = %d, prev = %v", len(s.Points), s.Verts, s.Prev)
	}
	// Empty append is a no-op.
	s.Append(nil)
	if s.P != vec.Of(2, 0, 0) || len(s.Points) != 3 || s.Verts != 3 || s.Prev != vec.Of(1, 0, 0) {
		t.Error("empty Append changed state")
	}
	// A one-point append leaves the old head behind as the tail.
	s.Append([]vec.V3{vec.Of(3, 0, 0)})
	if s.P != vec.Of(3, 0, 0) || s.Prev != vec.Of(2, 0, 0) || s.Verts != 4 {
		t.Errorf("after one more point: P = %v, Prev = %v, Verts = %d", s.P, s.Prev, s.Verts)
	}
}

// TestAppendWithoutCurve: a streamline that keeps no curve (nil Points)
// carries the same head, tail, count and byte sizes as one that does.
func TestAppendWithoutCurve(t *testing.T) {
	kept := New(0, vec.Of(0, 0, 0), 0)
	bare := New(0, vec.Of(0, 0, 0), 0)
	bare.Points = nil
	for _, pts := range [][]vec.V3{{vec.Of(1, 0, 0)}, nil, {vec.Of(2, 0, 0), vec.Of(2, 1, 0), vec.Of(2, 2, 0)}} {
		kept.Append(pts)
		bare.Append(pts)
		if bare.Points != nil {
			t.Fatal("Append gave a curve to a streamline that keeps none")
		}
		if bare.P != kept.P || bare.Prev != kept.Prev || bare.Verts != kept.Verts || bare.Verts != len(kept.Points) ||
			bare.Bytes() != kept.Bytes() || bare.String() != kept.String() {
			t.Fatalf("bare %+v diverged from kept %+v", bare, kept)
		}
	}
}

func TestByteSizes(t *testing.T) {
	s := New(0, vec.Of(0, 0, 0), 0)
	s.Append([]vec.V3{vec.Of(1, 0, 0), vec.Of(2, 0, 0), vec.Of(3, 0, 0)})
	if got := s.Bytes(); got != StateBytes+4*PointBytes {
		t.Errorf("Bytes = %d", got)
	}
	// Geometry grows memory: the effect behind the Static Allocation OOM.
	before := s.Bytes()
	s.Append([]vec.V3{vec.Of(4, 0, 0)})
	if s.Bytes() <= before {
		t.Error("memory did not grow with geometry")
	}
}

func TestArcLength(t *testing.T) {
	s := New(0, vec.Of(0, 0, 0), 0)
	s.Append([]vec.V3{vec.Of(1, 0, 0), vec.Of(1, 1, 0)})
	if got := s.ArcLength(); got != 2 {
		t.Errorf("ArcLength = %g", got)
	}
}

func TestStatusStringsAndTerminated(t *testing.T) {
	cases := []struct {
		s    Status
		term bool
	}{
		{Active, false},
		{OutOfBounds, true},
		{MaxedOut, true},
		{AtCritical, true},
		{Failed, true},
	}
	for _, c := range cases {
		if c.s.String() == "" || c.s.String() == "unknown" {
			t.Errorf("bad string for %d", int(c.s))
		}
		if c.s.Terminated() != c.term {
			t.Errorf("Terminated(%v) = %v", c.s, c.s.Terminated())
		}
	}
	if Status(42).String() != "unknown" {
		t.Error("unknown status must say so")
	}
}

func TestStreamlineString(t *testing.T) {
	s := New(3, vec.Of(0, 0, 0), 5)
	str := s.String()
	if !strings.Contains(str, "streamline 3") || !strings.Contains(str, "active") {
		t.Errorf("String = %q", str)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := New(42, vec.Of(0.5, -1.25, 3), grid.BlockID(17))
	s.Append([]vec.V3{vec.Of(1, 2, 3), vec.Of(4, 5, 6)})
	s.T = 1.5
	s.H = 0.01
	s.Steps = 2
	s.Status = MaxedOut

	data := s.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != s.ID || got.Seed != s.Seed || got.T != s.T || got.H != s.H ||
		got.Release != s.Release || got.Steps != s.Steps ||
		got.Status != s.Status || got.Block != s.Block {
		t.Errorf("state mismatch: %+v vs %+v", got, s)
	}
	if len(got.Points) != len(s.Points) {
		t.Fatalf("points = %d, want %d", len(got.Points), len(s.Points))
	}
	for i := range s.Points {
		if got.Points[i] != s.Points[i] {
			t.Errorf("point %d: %v vs %v", i, got.Points[i], s.Points[i])
		}
	}
	if got.P != s.P || got.Prev != s.Prev || got.Verts != s.Verts {
		t.Errorf("head, tail or count not restored: %v %v %d vs %v %v %d", got.P, got.Prev, got.Verts, s.P, s.Prev, s.Verts)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil buffer accepted")
	}
	if _, err := Unmarshal(make([]byte, 16)); err == nil {
		t.Error("short buffer accepted")
	}
	// Corrupt point count: claims many points but buffer ends.
	s := New(1, vec.Of(0, 0, 0), 0)
	data := s.Marshal()
	data[10*8] = 0xFF // inflate point count
	if _, err := Unmarshal(data); err == nil {
		t.Error("corrupt point count accepted")
	}
	if _, err := Unmarshal(overflowingCount()); err == nil {
		t.Error("a point count whose byte size overflows was accepted")
	}
}

// overflowingCount is a header claiming 1<<61 points: times 24 bytes a
// point that wraps to zero, which a check by multiplication passes.
func overflowingCount() []byte {
	data := New(1, vec.Of(0, 0, 0), 0).Marshal()[:11*8]
	binary.LittleEndian.PutUint64(data[10*8:], 1<<61)
	return data
}

// FuzzUnmarshal: Unmarshal never panics, whatever the bytes, and what it
// accepts is an encoding — marshalling the result gives the bytes it was
// decoded from (trailing garbage aside), head, tail and count consistent
// with the decoded curve.
func FuzzUnmarshal(f *testing.F) {
	f.Add(overflowingCount())
	f.Add([]byte(nil))
	s := New(42, vec.Of(0.5, -1.25, 3), grid.BlockID(17))
	f.Add(s.Marshal())
	s.Append([]vec.V3{vec.Of(1, 2, 3), vec.Of(4, 5, 6)})
	s.T, s.H, s.Release, s.Steps, s.Status = 1.5, 0.01, 0.25, 2, MaxedOut
	f.Add(s.Marshal())
	f.Add(append(s.Marshal(), 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return
		}
		enc := got.Marshal()
		if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(data), len(enc))
		}
		// Compared as bits: a fuzzed coordinate may be NaN.
		same := func(a, b vec.V3) bool {
			return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
				math.Float64bits(a.Z) == math.Float64bits(b.Z)
		}
		n := len(got.Points)
		if got.Verts != n || (n > 0 && !same(got.P, got.Points[n-1])) || (n == 0 && !same(got.P, got.Seed)) || (n > 1 && !same(got.Prev, got.Points[n-2])) {
			t.Fatalf("decoded head %v, tail %v, count %d disagree with the %d-point curve", got.P, got.Prev, got.Verts, n)
		}
	})
}

func TestPropMarshalRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 100; i++ {
		s := New(rng.Intn(100000), vec.Of(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()), grid.BlockID(rng.Intn(512)))
		n := rng.Intn(50)
		pts := make([]vec.V3, n)
		for j := range pts {
			pts[j] = vec.Of(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		}
		s.Append(pts)
		s.T = rng.Float64()
		s.H = rng.Float64()
		s.Release = rng.Float64() * 10
		s.Status = Status(rng.Intn(5))
		got, err := Unmarshal(s.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != s.String() || got.P != s.P || len(got.Points) != len(s.Points) ||
			got.Release != s.Release {
			t.Fatalf("round trip mismatch at case %d", i)
		}
	}
}
