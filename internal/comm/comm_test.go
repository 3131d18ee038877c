package comm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSendRecvDelivers(t *testing.T) {
	k := sim.New()
	f := NewFabric(Network{LatencySec: 0.001})
	stats := metrics.NewCollector(2)
	var got Envelope
	pb := k.Spawn("b", nil2())
	eb := f.Attach(pb, stats.P(1))
	pa := k.Spawn("a", nil2())
	ea := f.Attach(pa, stats.P(0))
	// Re-spawn with bodies now that endpoints exist: use closures over
	// the endpoints by spawning fresh procs instead.
	_ = ea
	_ = eb
	k2 := sim.New()
	f2 := NewFabric(Network{LatencySec: 0.001})
	stats2 := metrics.NewCollector(2)
	var recvAt float64
	var endB *Endpoint
	procB := k2.Spawn("b", func(p *sim.Proc) {
		got = endB.Recv()
		recvAt = p.Now()
	})
	endB = f2.Attach(procB, stats2.P(1))
	var endA *Endpoint
	procA := k2.Spawn("a", func(p *sim.Proc) {
		endA.Send(endB.Index(), Sized(100))
	})
	endA = f2.Attach(procA, stats2.P(0))
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Payload.(Sized) != 100 || got.From != endA.Index() {
		t.Errorf("envelope = %+v", got)
	}
	if recvAt < 0.001 {
		t.Errorf("delivered before latency elapsed: %g", recvAt)
	}
}

// nil2 is a placeholder body for endpoints created before bodies.
func nil2() func(p *sim.Proc) { return func(p *sim.Proc) {} }

// fabricPair builds a 2-endpoint fabric where each body receives its own
// endpoint; it returns after the simulation completes.
func fabricPair(t *testing.T, net Network, bodyA, bodyB func(e *Endpoint, peer int)) (*metrics.Collector, *sim.Kernel) {
	t.Helper()
	k := sim.New()
	f := NewFabric(net)
	stats := metrics.NewCollector(2)
	endpoints := make([]*Endpoint, 2)
	pa := k.Spawn("a", func(p *sim.Proc) { bodyA(endpoints[0], 1) })
	endpoints[0] = f.Attach(pa, stats.P(0))
	pb := k.Spawn("b", func(p *sim.Proc) { bodyB(endpoints[1], 0) })
	endpoints[1] = f.Attach(pb, stats.P(1))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return stats, k
}

func TestCommTimeAccounting(t *testing.T) {
	net := Network{
		LatencySec:        0.01,
		BandwidthBytesSec: 1e6,
		PostOverheadSec:   0.001,
		RecvOverheadSec:   0.002,
	}
	stats, _ := fabricPair(t, net,
		func(e *Endpoint, peer int) { e.Send(peer, Sized(2e6)) },
		func(e *Endpoint, peer int) { e.Recv() },
	)
	// Sender: post overhead + transfer = 0.001 + 2.0
	if got := stats.P(0).CommTime; math.Abs(got-2.001) > 1e-9 {
		t.Errorf("sender comm time = %g, want 2.001", got)
	}
	if stats.P(0).MsgsSent != 1 || stats.P(0).BytesSent != 2e6 {
		t.Errorf("sender counters: %+v", stats.P(0))
	}
	// Receiver: recv overhead only.
	if got := stats.P(1).CommTime; math.Abs(got-0.002) > 1e-9 {
		t.Errorf("receiver comm time = %g, want 0.002", got)
	}
	if stats.P(1).MsgsRecv != 1 || stats.P(1).BytesRecv != 2e6 {
		t.Errorf("receiver counters: %+v", stats.P(1))
	}
}

func TestGeometrySizeDrivesCommCost(t *testing.T) {
	// A 100× bigger message must cost ~100× more sender comm time —
	// the effect behind the paper's geometry-dominates observation.
	run := func(bytes int64) float64 {
		net := Network{BandwidthBytesSec: 1e9}
		stats, _ := fabricPair(t, net,
			func(e *Endpoint, peer int) { e.Send(peer, Sized(bytes)) },
			func(e *Endpoint, peer int) { e.Recv() },
		)
		return stats.P(0).CommTime
	}
	small := run(1e4)
	big := run(1e6)
	if ratio := big / small; ratio < 90 || ratio > 110 {
		t.Errorf("cost ratio = %g, want ~100", ratio)
	}
}

func TestTryRecv(t *testing.T) {
	net := Network{LatencySec: 0.5}
	var before, after bool
	fabricPair(t, net,
		func(e *Endpoint, peer int) {
			_, before = e.TryRecv()
			e.Proc().Sleep(1)
			_, after = e.TryRecv()
		},
		func(e *Endpoint, peer int) { e.Send(peer, Sized(8)) },
	)
	if before {
		t.Error("TryRecv saw message before latency")
	}
	if !after {
		t.Error("TryRecv missed delivered message")
	}
}

func TestPendingDoesNotConsume(t *testing.T) {
	net := Network{}
	fabricPair(t, net,
		func(e *Endpoint, peer int) {
			e.Proc().Sleep(0.1)
			if e.Pending() != 2 {
				t.Errorf("Pending = %d, want 2", e.Pending())
			}
			e.Recv()
			e.Recv()
		},
		func(e *Endpoint, peer int) {
			e.Send(peer, Sized(1))
			e.Send(peer, Sized(2))
		},
	)
}

func TestBroadcast(t *testing.T) {
	k := sim.New()
	f := NewFabric(Network{})
	const n = 5
	stats := metrics.NewCollector(n)
	endpoints := make([]*Endpoint, n)
	received := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		var body func(p *sim.Proc)
		if i == 0 {
			body = func(p *sim.Proc) { endpoints[0].Broadcast(Sized(8)) }
		} else {
			body = func(p *sim.Proc) {
				endpoints[i].Recv()
				received[i]++
			}
		}
		endpoints[i] = f.Attach(k.Spawn(fmt.Sprintf("p%d", i), body), stats.P(i))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if received[i] != 1 {
			t.Errorf("endpoint %d received %d", i, received[i])
		}
	}
	if stats.P(0).MsgsSent != n-1 {
		t.Errorf("broadcast sent %d msgs", stats.P(0).MsgsSent)
	}
}

func TestFabricAccessors(t *testing.T) {
	k := sim.New()
	f := NewFabric(DefaultNetwork())
	p := k.Spawn("x", func(p *sim.Proc) {})
	e := f.Attach(p, metrics.NewCollector(1).P(0))
	if len(f.endpoints) != 1 || f.Endpoint(0) != e || e.Index() != 0 || e.Proc() != p {
		t.Error("fabric accessors inconsistent")
	}
	if f.Network().LatencySec != DefaultNetwork().LatencySec {
		t.Error("Network() mismatch")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTransferTimeZeroBandwidth(t *testing.T) {
	n := Network{}
	if n.transferTime(1e9) != 0 {
		t.Error("zero-bandwidth transfer should be free")
	}
}

// countingMsg is a Message that counts its Bytes calls.
type countingMsg struct{ calls *int }

func (m countingMsg) Bytes() int64 {
	*m.calls++
	return 8
}

// TestUntracedSendRecvCallBytesOnce pins the untraced messaging hot
// path: with no recorder installed, a Send and a receive each ask the
// payload its size exactly once, and the nil recorder's hooks cost no
// further evaluation of it.
func TestUntracedSendRecvCallBytesOnce(t *testing.T) {
	var calls, atSend int
	fabricPair(t, Network{LatencySec: 0.001, BandwidthBytesSec: 1e9},
		func(e *Endpoint, peer int) {
			e.Send(peer, countingMsg{&calls})
			atSend = calls
		},
		func(e *Endpoint, _ int) { e.Recv() })
	if atSend != 1 || calls-atSend != 1 {
		t.Errorf("Bytes calls: Send %d, receive %d; want 1 each", atSend, calls-atSend)
	}
}

// TestRecvUntil covers the deadline-bounded receive the injection
// stalls use (DESIGN.md §9): a timeout charges nothing, a delivery cuts
// the wait short and is charged exactly like Recv.
func TestRecvUntil(t *testing.T) {
	k := sim.New()
	f := NewFabric(Network{LatencySec: 0.001, RecvOverheadSec: 0.002})
	stats := metrics.NewCollector(2)
	var timeoutAt, msgAt float64
	var timedOut, gotMsg bool
	var endB *Endpoint
	procB := k.Spawn("b", func(p *sim.Proc) {
		if _, ok := endB.RecvUntil(0.05); !ok {
			timedOut = true
		}
		timeoutAt = p.Now()
		env, ok := endB.RecvUntil(10)
		gotMsg = ok && env.Payload.(Sized) == Sized(64)
		msgAt = p.Now()
	})
	endB = f.Attach(procB, stats.P(1))
	var endA *Endpoint
	procA := k.Spawn("a", func(p *sim.Proc) {
		p.Sleep(0.1)
		endA.Send(endB.Index(), Sized(64))
	})
	endA = f.Attach(procA, stats.P(0))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || timeoutAt != 0.05 {
		t.Errorf("timeout path: ok=%v at %g, want timeout at 0.05", !timedOut, timeoutAt)
	}
	if stats.P(1).MsgsRecv != 1 {
		t.Errorf("MsgsRecv = %d, want 1 (timeout must charge nothing)", stats.P(1).MsgsRecv)
	}
	if !gotMsg || math.Abs(msgAt-0.103) > 1e-12 {
		t.Errorf("delivery path: ok=%v at %g, want message at 0.103 (latency + recv overhead)", gotMsg, msgAt)
	}
	if stats.P(1).CommTime == 0 {
		t.Error("delivered message not charged receive overhead")
	}
}
