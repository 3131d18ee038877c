package comm

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestSendToDeadPeerChargesAndDeadLetters pins the dead-peer send
// semantics: the sender pays the full posting cost, the drop is tallied
// as SendFailed (not as traffic), and the payload still reaches the
// kernel's dead-letter hook so a recovery layer can salvage it.
func TestSendToDeadPeerChargesAndDeadLetters(t *testing.T) {
	k := sim.New()
	var dead []Envelope
	k.SetDeadLetter(func(to *sim.Proc, msg any) {
		if env, ok := msg.(Envelope); ok {
			dead = append(dead, env)
		}
	})
	f := NewFabric(Network{LatencySec: 0.01, PostOverheadSec: 0.001})
	stats := metrics.NewCollector(2)
	endpoints := make([]*Endpoint, 2)
	victim := k.Spawn("victim", func(p *sim.Proc) { p.Sleep(10) })
	endpoints[0] = f.Attach(victim, stats.P(0))
	sender := k.Spawn("sender", func(p *sim.Proc) {
		p.Sleep(2) // past the victim's death at t=1
		endpoints[1].Send(0, Sized(64))
	})
	endpoints[1] = f.Attach(sender, stats.P(1))
	k.At(1, func() { k.Fail(victim) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !victim.Failed() || sender.Failed() {
		t.Fatalf("victim failed = %v, sender failed = %v; want the victim alone", victim.Failed(), sender.Failed())
	}
	s := stats.P(1)
	if s.SendFailed != 1 {
		t.Errorf("SendFailed = %d, want 1", s.SendFailed)
	}
	if s.MsgsSent != 0 || s.BytesSent != 0 {
		t.Errorf("dead send counted as traffic: msgs=%d bytes=%d", s.MsgsSent, s.BytesSent)
	}
	if s.CommTime <= 0 {
		t.Error("dead send charged no posting cost")
	}
	if len(dead) != 1 {
		t.Fatalf("dead letters = %d envelopes, want 1", len(dead))
	}
	if dead[0].From != 1 || dead[0].Payload.(Sized) != 64 {
		t.Errorf("dead letter = %+v, want the salvageable payload from sender 1", dead[0])
	}
}

// TestInHandSurvivesDeath: an envelope popped from the inbox but still
// paying receive overhead when its processor dies is exposed through
// InHand — the one window where a delivered message lives in neither
// the inbox nor algorithm state.
func TestInHandSurvivesDeath(t *testing.T) {
	k := sim.New()
	f := NewFabric(Network{LatencySec: 0.1, RecvOverheadSec: 1})
	stats := metrics.NewCollector(2)
	endpoints := make([]*Endpoint, 2)
	victim := k.Spawn("victim", func(p *sim.Proc) {
		endpoints[0].Recv() // delivery at 0.1; overhead holds it in hand until 1.1
	})
	endpoints[0] = f.Attach(victim, stats.P(0))
	sender := k.Spawn("sender", func(p *sim.Proc) {
		endpoints[1].Send(0, Sized(32))
	})
	endpoints[1] = f.Attach(sender, stats.P(1))
	k.At(0.6, func() { k.Fail(victim) }) // mid-charge
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	env, ok := endpoints[0].InHand()
	if !ok {
		t.Fatal("InHand() empty after a mid-charge death")
	}
	if env.Payload.(Sized) != 32 || env.From != 1 {
		t.Errorf("InHand = %+v, want the mid-charge envelope", env)
	}
}

// TestInHandClearedOnCleanRecv: after an undisturbed Recv completes its
// charge, nothing is left in hand.
func TestInHandClearedOnCleanRecv(t *testing.T) {
	var got *Endpoint
	fabricPair(t, Network{RecvOverheadSec: 0.1},
		func(e *Endpoint, peer int) { e.Send(peer, Sized(8)) },
		func(e *Endpoint, peer int) {
			e.Recv()
			got = e
		})
	if _, ok := got.InHand(); ok {
		t.Error("InHand() non-empty after a completed Recv")
	}
}
