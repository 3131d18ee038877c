package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func v3AlmostEq(a, b V3, tol float64) bool {
	return almostEq(a.X, b.X, tol) && almostEq(a.Y, b.Y, tol) && almostEq(a.Z, b.Z, tol)
}

func TestAddSub(t *testing.T) {
	a := Of(1, 2, 3)
	b := Of(-4, 5, 0.5)
	if got := a.Add(b); got != Of(-3, 7, 3.5) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != Of(5, -3, 2.5) {
		t.Errorf("Sub = %v", got)
	}
}

func TestScaleMul(t *testing.T) {
	a := Of(1, -2, 3)
	if got := a.Scale(2); got != Of(2, -4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Mul(Of(2, 3, -1)); got != Of(2, -6, -3) {
		t.Errorf("Mul = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := Of(1, 0, 0)
	y := Of(0, 1, 0)
	z := Of(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(x); got != z.Scale(-1) {
		t.Errorf("y cross x = %v, want -z", got)
	}
	if got := x.Dot(y); got != 0 {
		t.Errorf("x.y = %v", got)
	}
	if got := Of(1, 2, 3).Dot(Of(4, -5, 6)); got != 4-10+18 {
		t.Errorf("dot = %v", got)
	}
}

func TestNorm(t *testing.T) {
	if got := Of(3, 4, 0).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := Of(3, 4, 0).Norm2(); got != 25 {
		t.Errorf("Norm2 = %v", got)
	}
	n := Of(0, 0, 10).Normalized()
	if n != Of(0, 0, 1) {
		t.Errorf("Normalized = %v", n)
	}
	if z := (V3{}).Normalized(); z != (V3{}) {
		t.Errorf("zero Normalized = %v, want zero", z)
	}
}

func TestLerp(t *testing.T) {
	a, b := Of(0, 0, 0), Of(2, 4, 6)
	if got := a.Lerp(b, 0.5); got != Of(1, 2, 3) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !Of(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if Of(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if Of(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestMinMaxComponents(t *testing.T) {
	v := Of(-1, 5, 2)
	if v.MinComponent() != -1 {
		t.Errorf("MinComponent = %v", v.MinComponent())
	}
	if got := Min(Of(1, 5, 2), Of(3, 4, 0)); got != Of(1, 4, 0) {
		t.Errorf("Min = %v", got)
	}
	if got := Max(Of(1, 5, 2), Of(3, 4, 0)); got != Of(3, 5, 2) {
		t.Errorf("Max = %v", got)
	}
}

func TestBoxContains(t *testing.T) {
	b := Box(Of(0, 0, 0), Of(1, 1, 1))
	cases := []struct {
		p  V3
		in bool
	}{
		{Of(0.5, 0.5, 0.5), true},
		{Of(0, 0, 0), true},
		{Of(1, 1, 1), true},
		{Of(1.0001, 0.5, 0.5), false},
		{Of(-0.0001, 0.5, 0.5), false},
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.in {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.in)
		}
	}
}

func TestBoxNormalizesCorners(t *testing.T) {
	b := Box(Of(1, 2, 3), Of(0, 0, 0))
	if b.Min != Of(0, 0, 0) || b.Max != Of(1, 2, 3) {
		t.Errorf("Box did not normalize corners: %v", b)
	}
}

func TestBoxGeometry(t *testing.T) {
	b := Box(Of(0, 0, 0), Of(2, 4, 8))
	if b.Volume() != 64 {
		t.Errorf("Volume = %v", b.Volume())
	}
	if b.Center() != Of(1, 2, 4) {
		t.Errorf("Center = %v", b.Center())
	}
	if b.Size() != Of(2, 4, 8) {
		t.Errorf("Size = %v", b.Size())
	}
	e := b.Expand(1)
	if e.Min != Of(-1, -1, -1) || e.Max != Of(3, 5, 9) {
		t.Errorf("Expand = %v", e)
	}
}

func TestBoxUnionIntersect(t *testing.T) {
	a := Box(Of(0, 0, 0), Of(1, 1, 1))
	b := Box(Of(0.5, 0.5, 0.5), Of(2, 2, 2))
	u := a.Union(b)
	if u.Min != Of(0, 0, 0) || u.Max != Of(2, 2, 2) {
		t.Errorf("Union = %v", u)
	}
	i := a.Intersect(b)
	if i.Min != Of(0.5, 0.5, 0.5) || i.Max != Of(1, 1, 1) {
		t.Errorf("Intersect = %v", i)
	}
	far := Box(Of(5, 5, 5), Of(6, 6, 6))
	if got := a.Intersect(far); !got.IsEmpty() {
		t.Errorf("disjoint Intersect not empty: %v", got)
	}
}

func TestBoxClamp(t *testing.T) {
	b := Box(Of(0, 0, 0), Of(1, 1, 1))
	if got := b.Clamp(Of(2, -1, 0.5)); got != Of(1, 0, 0.5) {
		t.Errorf("Clamp = %v", got)
	}
	inside := Of(0.3, 0.4, 0.5)
	if got := b.Clamp(inside); got != inside {
		t.Errorf("Clamp moved interior point: %v", got)
	}
}

// --- property-based tests ---

func randV3(r *rand.Rand) V3 {
	return Of(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*20-10)
}

func TestPropCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Of(math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 100))
		b := Of(math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 100))
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 {
			return c == V3{}
		}
		return math.Abs(c.Dot(a))/scale < 1e-9 && math.Abs(c.Dot(b))/scale < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randV3(r), randV3(r)
		if a.Add(b).Norm() > a.Norm()+b.Norm()+1e-12 {
			t.Fatalf("triangle inequality violated for %v, %v", a, b)
		}
	}
}

func TestPropNormalizedUnit(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		v := randV3(r)
		if v.Norm() == 0 {
			continue
		}
		if !almostEq(v.Normalized().Norm(), 1, 1e-12) {
			t.Fatalf("Normalized(%v).Norm() = %v", v, v.Normalized().Norm())
		}
	}
}

func TestPropLerpBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a, b := randV3(r), randV3(r)
		tt := r.Float64()
		p := a.Lerp(b, tt)
		box := Box(a, b)
		if !box.Expand(1e-9).Contains(p) {
			t.Fatalf("Lerp(%v,%v,%v) = %v outside box", a, b, tt, p)
		}
	}
}

func TestPropClampInside(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		box := Box(randV3(r), randV3(r))
		p := randV3(r).Scale(3)
		c := box.Clamp(p)
		if !box.Contains(c) {
			t.Fatalf("Clamp(%v) = %v outside %v", p, c, box)
		}
		if box.Contains(p) && c != p {
			t.Fatalf("Clamp moved interior point %v -> %v", p, c)
		}
	}
}

func TestPropUnionContainsBoth(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a := Box(randV3(r), randV3(r))
		b := Box(randV3(r), randV3(r))
		u := a.Union(b)
		for j := 0; j < 10; j++ {
			pa := a.Min.Lerp(a.Max, r.Float64())
			pb := b.Min.Lerp(b.Max, r.Float64())
			if !u.Contains(pa) || !u.Contains(pb) {
				t.Fatalf("union %v missing member point", u)
			}
		}
	}
}
