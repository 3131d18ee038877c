package comm

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestTraceMirrorsTrafficCounters checks that send/recv marks mirror the
// delivered-traffic metrics, comm spans cover the charged overhead, and
// the send→recv pairing feeds the message-latency digest, all on the
// recorder installed on the kernel.
func TestTraceMirrorsTrafficCounters(t *testing.T) {
	rec := obs.New()
	k := sim.New()
	k.SetTrace(rec)
	net := Network{LatencySec: 0.5, PostOverheadSec: 0.01, RecvOverheadSec: 0.02}
	f := NewFabric(net)
	stats := metrics.NewCollector(2)
	var endA, endB *Endpoint
	procB := k.Spawn("b", func(p *sim.Proc) {
		endB.Recv()
	})
	endB = f.Attach(procB, stats.P(0))
	procA := k.Spawn("a", func(p *sim.Proc) {
		endA.Send(endB.Index(), Sized(100))
	})
	endA = f.Attach(procA, stats.P(1))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var sends, recvs, spans []obs.Event
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.MarkSend:
			sends = append(sends, e)
		case obs.MarkRecv:
			recvs = append(recvs, e)
		case obs.SpanComm:
			spans = append(spans, e)
		}
	}
	if len(sends) != 1 || len(recvs) != 1 || len(spans) != 2 {
		t.Fatalf("sends/recvs/spans = %d/%d/%d, want 1/1/2", len(sends), len(recvs), len(spans))
	}
	// endB attached first: receiver is endpoint 0, sender endpoint 1.
	if sends[0].Proc != 1 || sends[0].A != 0 || sends[0].B != 100 {
		t.Fatalf("send mark = %+v", sends[0])
	}
	if recvs[0].Proc != 0 || recvs[0].A != 1 || recvs[0].B != 100 {
		t.Fatalf("recv mark = %+v", recvs[0])
	}
	rep := rec.Report()
	if rep.MsgLatency.Count != 1 {
		t.Fatalf("latency digest count = %d, want 1", rep.MsgLatency.Count)
	}
	// Post at 0.01, delivered 0.5 later, drained after 0.02 overhead.
	want := net.LatencySec + net.RecvOverheadSec
	if got := rep.MsgLatency.Sum; got != want {
		t.Fatalf("message latency = %g, want %g", got, want)
	}
	// No recorder: the same scenario emits nothing and still works.
	k2 := sim.New()
	f2 := NewFabric(net)
	var a2, b2 *Endpoint
	pb2 := k2.Spawn("b", func(p *sim.Proc) { b2.Recv() })
	b2 = f2.Attach(pb2, stats.P(0))
	pa2 := k2.Spawn("a", func(p *sim.Proc) { a2.Send(b2.Index(), Sized(1)) })
	a2 = f2.Attach(pa2, stats.P(1))
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
}
