// Package render turns computed streamlines into images, standing in for
// the paper's Figures 1–4 (supernova field lines, tokamak field lines,
// thermal-hydraulics mixing, inlet stream surface).
//
// It is a small software rasterizer: points are projected with a simple
// perspective camera and polylines are drawn with depth-attenuated,
// value-mapped colors into a PPM image (stdlib only, no image deps
// beyond encoding the raw format).
package render

import (
	"fmt"
	"io"
	"math"

	"repro/internal/trace"
	"repro/internal/vec"
)

// Camera is a right-handed look-at perspective camera.
type Camera struct {
	Eye    vec.V3
	Target vec.V3
	Up     vec.V3
	// FOV is the vertical field of view in degrees.
	FOV float64
}

// defaultCamera looks at the center of box from a three-quarter view.
func defaultCamera(box vec.AABB) Camera {
	c := box.Center()
	r := box.Size().Norm()
	return Camera{
		Eye:    c.Add(vec.Of(0.9*r, 0.65*r, 0.55*r)),
		Target: c,
		Up:     vec.Of(0, 0, 1),
		FOV:    40,
	}
}

// Image is an RGB framebuffer with a depth buffer.
type Image struct {
	W, H  int
	pix   []byte    // 3 bytes per pixel
	depth []float64 // camera-space depth per pixel
}

// newImage allocates a black image.
func newImage(w, h int) *Image {
	img := &Image{W: w, H: h, pix: make([]byte, 3*w*h), depth: make([]float64, w*h)}
	for i := range img.depth {
		img.depth[i] = math.Inf(1)
	}
	return img
}

// Set writes a pixel if it is closer than the current depth.
func (im *Image) Set(x, y int, z float64, r, g, b byte) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	at := y*im.W + x
	if z >= im.depth[at] {
		return
	}
	im.depth[at] = z
	im.pix[3*at] = r
	im.pix[3*at+1] = g
	im.pix[3*at+2] = b
}

// At returns the color at (x, y).
func (im *Image) At(x, y int) (r, g, b byte) {
	at := y*im.W + x
	return im.pix[3*at], im.pix[3*at+1], im.pix[3*at+2]
}

// WritePPM encodes the image in binary PPM (P6).
func (im *Image) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	_, err := w.Write(im.pix)
	return err
}

// projector precomputes the camera basis.
type projector struct {
	cam    Camera
	fwd    vec.V3
	right  vec.V3
	up     vec.V3
	scale  float64
	w, h   int
	aspect float64
}

func newProjector(cam Camera, w, h int) *projector {
	fwd := cam.Target.Sub(cam.Eye).Normalized()
	right := fwd.Cross(cam.Up).Normalized()
	up := right.Cross(fwd)
	return &projector{
		cam:    cam,
		fwd:    fwd,
		right:  right,
		up:     up,
		scale:  1 / math.Tan(cam.FOV*math.Pi/360),
		w:      w,
		h:      h,
		aspect: float64(w) / float64(h),
	}
}

// project maps a world point to pixel coordinates and camera depth.
func (pr *projector) project(p vec.V3) (x, y int, z float64, ok bool) {
	d := p.Sub(pr.cam.Eye)
	z = d.Dot(pr.fwd)
	if z <= 1e-6 {
		return 0, 0, 0, false
	}
	nx := d.Dot(pr.right) / z * pr.scale / pr.aspect
	ny := d.Dot(pr.up) / z * pr.scale
	x = int((nx + 1) / 2 * float64(pr.w))
	y = int((1 - (ny+1)/2) * float64(pr.h))
	return x, y, z, true
}

// Palette maps a normalized scalar in [0,1] to a color.
type Palette func(t float64) (r, g, b byte)

// CoolWarm is a blue→white→orange diverging palette (the thermal figure's
// cold/warm inlets).
func CoolWarm(t float64) (byte, byte, byte) {
	t = clamp01(t)
	switch {
	case t < 0.5:
		u := t * 2
		return byte(60 + 180*u), byte(100 + 140*u), 255
	default:
		u := (t - 0.5) * 2
		return 255, byte(240 - 140*u), byte(240 - 200*u)
	}
}

// Plasma is a dark-violet→yellow sequential palette (the astro figure).
func Plasma(t float64) (byte, byte, byte) {
	t = clamp01(t)
	return byte(40 + 215*t), byte(15 + 150*t*t), byte(120 + 100*(1-t)*(1-t))
}

func clamp01(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// Options configures a streamline rendering.
type Options struct {
	Width, Height int
	Camera        Camera
	Palette       Palette
	// ColorBy selects the scalar: "time" (parameter along the curve) or
	// "z" (height). Default "time".
	ColorBy string
}

// Streamlines rasterizes the curves into a fresh image.
func Streamlines(sls []*trace.Streamline, box vec.AABB, opts Options) *Image {
	if opts.Width == 0 {
		opts.Width = 800
	}
	if opts.Height == 0 {
		opts.Height = 600
	}
	if opts.Palette == nil {
		opts.Palette = Plasma
	}
	if (opts.Camera == Camera{}) {
		opts.Camera = defaultCamera(box)
	}
	img := newImage(opts.Width, opts.Height)
	pr := newProjector(opts.Camera, opts.Width, opts.Height)

	for _, sl := range sls {
		n := len(sl.Points)
		if n < 2 {
			continue
		}
		for i := 1; i < n; i++ {
			var t float64
			if opts.ColorBy == "z" {
				t = (sl.Points[i].Z - box.Min.Z) / math.Max(box.Size().Z, 1e-12)
			} else {
				t = float64(i) / float64(n-1)
			}
			r, g, b := opts.Palette(t)
			drawSegment(img, pr, sl.Points[i-1], sl.Points[i], r, g, b)
		}
	}
	return img
}

// drawSegment rasterizes one world-space segment with a DDA in screen
// space, subdividing long segments so perspective stays correct.
func drawSegment(img *Image, pr *projector, a, b vec.V3, r, g, bl byte) {
	x0, y0, z0, ok0 := pr.project(a)
	x1, y1, z1, ok1 := pr.project(b)
	if !ok0 || !ok1 {
		return
	}
	dx, dy := x1-x0, y1-y0
	steps := maxInt(absInt(dx), absInt(dy))
	if steps == 0 {
		img.Set(x0, y0, z0, r, g, bl)
		return
	}
	for i := 0; i <= steps; i++ {
		f := float64(i) / float64(steps)
		x := x0 + int(math.Round(f*float64(dx)))
		y := y0 + int(math.Round(f*float64(dy)))
		z := z0 + f*(z1-z0)
		img.Set(x, y, z, r, g, bl)
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Coverage returns the fraction of pixels that received any color; tests
// use it to assert a rendering actually drew something sensible.
func (im *Image) Coverage() float64 {
	lit := 0
	for i := 0; i < im.W*im.H; i++ {
		if im.pix[3*i] != 0 || im.pix[3*i+1] != 0 || im.pix[3*i+2] != 0 {
			lit++
		}
	}
	return float64(lit) / float64(im.W*im.H)
}
