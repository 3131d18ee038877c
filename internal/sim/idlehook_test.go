package sim

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// TestIdleHookCoversMessageWaits checks that the kernel records exactly
// the message-wait intervals it charges as idle time, as SpanIdle events
// on the recorder installed on it: a receiver's idle spans sum to its
// IdleTime, and both delivery wake-ups and RecvUntil deadline expiries
// are recorded.
func TestIdleHookCoversMessageWaits(t *testing.T) {
	rec := obs.New()
	k := New()
	k.SetTrace(rec)
	var recvr *Proc
	recvr = k.Spawn("recvr", func(p *Proc) {
		if p.Trace() != rec {
			t.Error("Proc.Trace is not the kernel's recorder")
		}
		p.Recv() // woken by delivery at t=0.5
		if _, ok := p.RecvUntil(p.Now() + 0.25); ok {
			t.Error("RecvUntil should have timed out")
		}
	})
	k.Spawn("sender", func(p *Proc) {
		p.Send(recvr, "ping", 0.5)
		p.Sleep(2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	type span struct{ start, end float64 }
	var spans []span
	for _, e := range rec.Events() {
		if e.Kind != obs.SpanIdle {
			continue
		}
		if e.Proc != int32(recvr.ID()) {
			t.Fatalf("idle span on proc %d, want only the receiver's", e.Proc)
		}
		spans = append(spans, span{e.Time, e.Time + e.Dur})
	}
	if len(spans) != 2 {
		t.Fatalf("recorded %d idle spans for receiver, want 2 (delivery + deadline)", len(spans))
	}
	var sum float64
	for _, s := range spans {
		if s.end <= s.start {
			t.Fatalf("empty idle span %+v", s)
		}
		sum += s.end - s.start
	}
	if math.Abs(sum-recvr.IdleTime()) > 1e-12 {
		t.Fatalf("recorded idle %.6f != IdleTime %.6f", sum, recvr.IdleTime())
	}
	if spans[0] != (span{0, 0.5}) {
		t.Fatalf("delivery wait span = %+v, want {0 0.5}", spans[0])
	}
	if spans[1] != (span{0.5, 0.75}) {
		t.Fatalf("deadline wait span = %+v, want {0.5 0.75}", spans[1])
	}
}
