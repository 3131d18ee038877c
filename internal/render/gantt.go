package render

import (
	"repro/internal/obs"
)

// Gantt colors, one per activity span kind plus the kill tick; a kind
// without an entry is not drawn.
var ganttColors = map[obs.Kind][3]byte{
	obs.SpanCompute: {70, 200, 95},  // green: integration work
	obs.SpanIO:      {80, 130, 255}, // blue: block transfer
	obs.SpanIOQueue: {185, 90, 235}, // purple: queued for the I/O server
	obs.SpanComm:    {255, 175, 50}, // orange: messaging overhead
	obs.SpanIdle:    {70, 70, 80},   // gray: blocked in a message wait
	obs.MarkKill:    {255, 55, 55},  // red: fail-stop fault
}

// ganttPriority breaks ties when spans overlap on one processor lane:
// a more specific activity paints over a broader one (a comm charge
// inside a compute interval shows as comm; the kill tick beats all).
func ganttPriority(k obs.Kind) float64 {
	switch k {
	case obs.MarkKill:
		return 5
	case obs.SpanComm:
		return 4
	case obs.SpanIOQueue:
		return 3
	case obs.SpanIO:
		return 2
	case obs.SpanCompute:
		return 1
	default: // SpanIdle
		return 0
	}
}

// Gantt renders a recorded event stream as a per-processor timeline —
// the paper's Gantt charts: one horizontal lane per processor, virtual
// time on the x axis, activity spans as colored bars (see ganttColors)
// and fail-stop kills as full-height red ticks. Instant marks other
// than kills are not drawn; they would be sub-pixel at any useful
// scale. The image is a pure function of the event stream, so it is
// identical across runs of the same configuration.
func Gantt(events []obs.Event, numProcs, w, h int) *Image {
	if w <= 0 {
		w = 1024
	}
	if h <= 0 {
		h = 512
	}
	img := newImage(w, h)
	if numProcs <= 0 || len(events) == 0 {
		return img
	}
	end := 0.0
	for i := range events {
		if t := events[i].Time + events[i].Dur; t > end {
			end = t
		}
	}
	if end <= 0 {
		return img
	}
	laneH := h / numProcs
	if laneH < 2 {
		laneH = 2
	}
	gap := 0
	if laneH >= 4 {
		gap = 1 // one background row separates adjacent lanes
	}
	toX := func(t float64) int {
		x := int(t / end * float64(w-1))
		if x < 0 {
			x = 0
		}
		if x > w-1 {
			x = w - 1
		}
		return x
	}
	for i := range events {
		e := &events[i]
		c, ok := ganttColors[e.Kind]
		if !ok || int(e.Proc) >= numProcs {
			continue
		}
		x0, x1 := toX(e.Time), toX(e.Time+e.Dur)
		y0 := int(e.Proc) * laneH
		y1 := y0 + laneH - gap
		if e.Kind == obs.MarkKill {
			// A kill tick runs the full image height: the death of a
			// processor is the one instant every other lane reacts to.
			y0, y1 = 0, h
		}
		if y1 > h {
			y1 = h
		}
		// The depth buffer doubles as the priority channel: Set keeps
		// the smaller z, so higher-priority kinds use a lower z and
		// paint over broader activity.
		z := -ganttPriority(e.Kind)
		for x := x0; x <= x1; x++ {
			for y := y0; y < y1; y++ {
				img.Set(x, y, z, c[0], c[1], c[2])
			}
		}
	}
	return img
}
