package render

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/vec"
)

func line(id int, pts ...vec.V3) *trace.Streamline {
	sl := trace.New(id, pts[0], 0)
	sl.Append(pts[1:])
	return sl
}

var unitBox = vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1))

func TestImageSetRespectsDepth(t *testing.T) {
	im := newImage(4, 4)
	im.Set(1, 1, 5, 10, 20, 30)
	im.Set(1, 1, 9, 99, 99, 99) // farther: must not overwrite
	r, g, b := im.At(1, 1)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("pixel = (%d,%d,%d)", r, g, b)
	}
	im.Set(1, 1, 2, 1, 2, 3) // closer: must overwrite
	r, g, b = im.At(1, 1)
	if r != 1 || g != 2 || b != 3 {
		t.Errorf("pixel after closer write = (%d,%d,%d)", r, g, b)
	}
}

func TestImageSetClipsBounds(t *testing.T) {
	im := newImage(2, 2)
	// Out-of-bounds writes must not panic.
	im.Set(-1, 0, 1, 255, 255, 255)
	im.Set(5, 5, 1, 255, 255, 255)
	if im.Coverage() != 0 {
		t.Error("out-of-bounds writes lit pixels")
	}
}

func TestWritePPMFormat(t *testing.T) {
	im := newImage(3, 2)
	im.Set(0, 0, 1, 255, 0, 0)
	var buf bytes.Buffer
	if err := im.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "P6\n3 2\n255\n") {
		t.Errorf("bad header: %q", out[:12])
	}
	if buf.Len() != len("P6\n3 2\n255\n")+3*3*2 {
		t.Errorf("payload length = %d", buf.Len())
	}
}

func TestStreamlinesDrawSomething(t *testing.T) {
	sls := []*trace.Streamline{
		line(0, vec.Of(0.1, 0.1, 0.1), vec.Of(0.9, 0.5, 0.5), vec.Of(0.5, 0.9, 0.9)),
		line(1, vec.Of(0.2, 0.8, 0.3), vec.Of(0.8, 0.2, 0.7)),
	}
	img := Streamlines(sls, unitBox, Options{Width: 200, Height: 150})
	if cov := img.Coverage(); cov <= 0 || cov > 0.5 {
		t.Errorf("coverage = %g, want a thin sensible trace", cov)
	}
}

func TestStreamlinesEmptyAndDegenerate(t *testing.T) {
	// No curves and single-point curves must render an empty image.
	img := Streamlines(nil, unitBox, Options{Width: 50, Height: 50})
	if img.Coverage() != 0 {
		t.Error("empty input lit pixels")
	}
	img = Streamlines([]*trace.Streamline{trace.New(0, vec.Of(0.5, 0.5, 0.5), 0)}, unitBox, Options{Width: 50, Height: 50})
	if img.Coverage() != 0 {
		t.Error("single-point curve lit pixels")
	}
}

func TestBehindCameraCulled(t *testing.T) {
	cam := Camera{Eye: vec.Of(0.5, 0.5, 5), Target: vec.Of(0.5, 0.5, 0), Up: vec.Of(0, 1, 0), FOV: 45}
	behind := line(0, vec.Of(0.5, 0.5, 10), vec.Of(0.6, 0.6, 12))
	img := Streamlines([]*trace.Streamline{behind}, unitBox, Options{Width: 64, Height: 64, Camera: cam})
	if img.Coverage() != 0 {
		t.Error("geometry behind the camera was drawn")
	}
}

func TestPalettes(t *testing.T) {
	for _, pal := range []Palette{CoolWarm, Plasma} {
		for _, tt := range []float64{-1, 0, 0.25, 0.5, 0.75, 1, 2} {
			r, g, b := pal(tt)
			_ = r
			_ = g
			_ = b // must not panic; bytes are inherently in range
		}
	}
	// CoolWarm endpoints: cold is blue-ish, warm is orange-ish.
	r0, _, b0 := CoolWarm(0)
	r1, _, b1 := CoolWarm(1)
	if b0 <= r0 {
		t.Errorf("cold end not blue: r=%d b=%d", r0, b0)
	}
	if r1 <= b1 {
		t.Errorf("warm end not warm: r=%d b=%d", r1, b1)
	}
}

func TestColorByZ(t *testing.T) {
	sls := []*trace.Streamline{line(0, vec.Of(0.1, 0.5, 0.0), vec.Of(0.9, 0.5, 1.0))}
	img := Streamlines(sls, unitBox, Options{Width: 100, Height: 100, ColorBy: "z", Palette: CoolWarm})
	if img.Coverage() == 0 {
		t.Fatal("nothing drawn")
	}
}

func TestDefaultCameraSeesBox(t *testing.T) {
	box := vec.Box(vec.Of(-2, -1, 0), vec.Of(2, 1, 3))
	cam := defaultCamera(box)
	if cam.Eye.Dist(box.Center()) <= 0 {
		t.Error("camera at box center")
	}
	// The box center projects inside the viewport.
	pr := newProjector(cam, 100, 100)
	x, y, _, ok := pr.project(box.Center())
	if !ok || x < 0 || x >= 100 || y < 0 || y >= 100 {
		t.Errorf("center projects to (%d,%d,%v)", x, y, ok)
	}
}

func TestProjectionDepthOrder(t *testing.T) {
	cam := Camera{Eye: vec.Of(0, 0, 10), Target: vec.Of(0, 0, 0), Up: vec.Of(0, 1, 0), FOV: 45}
	pr := newProjector(cam, 100, 100)
	_, _, zNear, _ := pr.project(vec.Of(0, 0, 5))
	_, _, zFar, _ := pr.project(vec.Of(0, 0, -5))
	if !(zNear < zFar) {
		t.Errorf("depth order wrong: near %g far %g", zNear, zFar)
	}
	if math.Abs(zNear-5) > 1e-9 || math.Abs(zFar-15) > 1e-9 {
		t.Errorf("depths = %g, %g", zNear, zFar)
	}
}

func TestCoverageCounts(t *testing.T) {
	im := newImage(10, 10)
	if im.Coverage() != 0 {
		t.Error("fresh image not empty")
	}
	im.Set(0, 0, 1, 1, 0, 0)
	im.Set(5, 5, 1, 0, 1, 0)
	if got := im.Coverage(); got != 0.02 {
		t.Errorf("Coverage = %g, want 0.02", got)
	}
}
