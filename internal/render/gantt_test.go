package render

import (
	"testing"

	"repro/internal/obs"
)

// ganttFixture is a hand-built two-processor event stream: proc 0
// computes for the first half and idles the second; proc 1 queues,
// reads and then computes with a comm charge inside, and is killed at
// three quarters of the run.
func ganttFixture() []obs.Event {
	return []obs.Event{
		{Time: 0.0, Dur: 0.5, Proc: 0, Kind: obs.SpanCompute},
		{Time: 0.5, Dur: 0.5, Proc: 0, Kind: obs.SpanIdle},
		{Time: 0.0, Dur: 0.2, Proc: 1, Kind: obs.SpanIOQueue},
		{Time: 0.2, Dur: 0.2, Proc: 1, Kind: obs.SpanIO},
		{Time: 0.4, Dur: 0.6, Proc: 1, Kind: obs.SpanCompute},
		{Time: 0.5, Dur: 0.1, Proc: 1, Kind: obs.SpanComm},
		{Time: 0.75, Proc: 1, Kind: obs.MarkKill},
		{Time: 0.3, Proc: 0, Kind: obs.MarkBlockLoad}, // not drawn
	}
}

func wantColor(t *testing.T, img *Image, x, y int, k obs.Kind) {
	t.Helper()
	want, ok := ganttColors[k]
	if !ok {
		t.Fatalf("kind %s has no gantt color", k)
	}
	r, g, b := img.At(x, y)
	if [3]byte{r, g, b} != want {
		t.Errorf("pixel (%d,%d) = (%d,%d,%d), want %s %v", x, y, r, g, b, k, want)
	}
}

func TestGantt(t *testing.T) {
	const w, h = 100, 20 // lanes: proc 0 rows 0-8, proc 1 rows 10-18
	img := Gantt(ganttFixture(), 2, w, h)

	wantColor(t, img, 10, 4, obs.SpanCompute) // proc 0 first half computes
	wantColor(t, img, 90, 4, obs.SpanIdle)    // proc 0 second half idles
	wantColor(t, img, 5, 14, obs.SpanIOQueue) // proc 1 queues...
	wantColor(t, img, 30, 14, obs.SpanIO)     // ...then reads...
	wantColor(t, img, 45, 14, obs.SpanCompute)
	wantColor(t, img, 55, 14, obs.SpanComm) // comm paints over compute
	// The kill tick runs the full height, through proc 0's lane too.
	x := 75 * (w - 1) / 100
	wantColor(t, img, x, 4, obs.MarkKill)
	wantColor(t, img, x, 14, obs.MarkKill)

	if img.Coverage() == 0 {
		t.Fatal("gantt drew nothing")
	}
	// The undrawn mark kind must not have a color.
	if _, ok := ganttColors[obs.MarkBlockLoad]; ok {
		t.Error("block-load marks should not render")
	}
}

// TestGanttDegenerate pins the renderer's guard rails: no events, zero
// processors and out-of-range processor indices must not panic or draw.
func TestGanttDegenerate(t *testing.T) {
	if img := Gantt(nil, 4, 64, 32); img.Coverage() != 0 {
		t.Error("empty event stream drew pixels")
	}
	if img := Gantt(ganttFixture(), 0, 64, 32); img.Coverage() != 0 {
		t.Error("zero processors drew pixels")
	}
	ev := []obs.Event{{Time: 0, Dur: 1, Proc: 9, Kind: obs.SpanCompute}}
	if img := Gantt(ev, 2, 64, 32); img.Coverage() != 0 {
		t.Error("out-of-range processor drew pixels")
	}
	if img := Gantt(ev, 2, 0, 0); img == nil || img.W <= 0 {
		t.Error("zero dimensions did not fall back to defaults")
	}
}
