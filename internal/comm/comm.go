// Package comm is the message-passing layer between simulated processors:
// the stand-in for MPI point-to-point communication (see DESIGN.md §2).
//
// Every message carries an explicit byte size; per the paper's Section 8,
// "communicating streamline geometry accounts for a large proportion of
// communication cost", so sizes matter. Senders are charged a post
// overhead plus a size-proportional injection cost, receivers a drain
// cost; both are accumulated as the communication-time metric that
// Figures 8, 11 and 15 report.
package comm

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Message is any payload with a simulated wire size.
type Message interface {
	Bytes() int64
}

// Network describes the interconnect cost model.
type Network struct {
	// LatencySec is the end-to-end delivery latency.
	LatencySec float64
	// BandwidthBytesSec bounds per-message transfer speed; transfer time
	// is added to delivery latency and charged to the sender (an
	// MPI-like rendezvous send).
	BandwidthBytesSec float64
	// PostOverheadSec is CPU time charged to the sender per message.
	PostOverheadSec float64
	// RecvOverheadSec is CPU time charged to the receiver per message.
	RecvOverheadSec float64
}

// DefaultNetwork returns an interconnect loosely calibrated to a 2009-era
// Cray SeaStar torus: ~5 µs latency, ~2 GB/s links, small per-message CPU
// overheads.
func DefaultNetwork() Network {
	return Network{
		LatencySec:        5e-6,
		BandwidthBytesSec: 2e9,
		PostOverheadSec:   2e-6,
		RecvOverheadSec:   2e-6,
	}
}

// transferTime returns the size-dependent part of sending a message.
func (n Network) transferTime(bytes int64) float64 {
	if n.BandwidthBytesSec <= 0 {
		return 0
	}
	return float64(bytes) / n.BandwidthBytesSec
}

// Envelope wraps a delivered message with its sender's endpoint index.
type Envelope struct {
	From    int
	Payload Message
}

// Endpoint binds a simulated processor to the network. Endpoint indices
// are assigned by the Fabric.
type Endpoint struct {
	fabric *Fabric
	proc   *sim.Proc
	index  int
	stats  *metrics.ProcStats

	// inHand is the envelope popped from the inbox but still being
	// charged receive overhead. If the processor dies during that
	// charge, the message is in neither the inbox nor the handler —
	// InHand is how the recovery layer finds it (see recvCharge).
	inHand    Envelope
	hasInHand bool
}

// Fabric is the set of endpoints sharing one network.
type Fabric struct {
	net       Network
	endpoints []*Endpoint
	tr        *obs.Recorder
}

// NewFabric creates an empty fabric over net.
func NewFabric(net Network) *Fabric { return &Fabric{net: net} }

// SetTracer installs a trace recorder: every endpoint then emits comm
// spans for the messaging overhead it charges plus send/recv marks for
// delivered traffic. A nil recorder (the default) records nothing; the
// hooks are the recorder's inlined nil-receiver no-ops.
func (f *Fabric) SetTracer(r *obs.Recorder) { f.tr = r }

// Attach registers proc on the fabric and returns its endpoint, which
// charges its communication counters to stats. stats is required.
func (f *Fabric) Attach(proc *sim.Proc, stats *metrics.ProcStats) *Endpoint {
	e := &Endpoint{fabric: f, proc: proc, index: len(f.endpoints), stats: stats}
	f.endpoints = append(f.endpoints, e)
	return e
}

// Endpoint returns the endpoint with the given index.
func (f *Fabric) Endpoint(i int) *Endpoint { return f.endpoints[i] }

// Network returns the fabric's cost model.
func (f *Fabric) Network() Network { return f.net }

// Index returns this endpoint's fabric index.
func (e *Endpoint) Index() int { return e.index }

// Proc returns the simulated processor bound to this endpoint.
func (e *Endpoint) Proc() *sim.Proc { return e.proc }

// Send transmits payload to endpoint index "to". The calling processor is
// charged post overhead plus transfer time (both recorded as comm time);
// delivery occurs after the network latency. A send to a peer that has
// already failed is dropped on the floor: the sender still pays the full
// posting cost (it cannot know the destination is gone until the fabric
// refuses the message) and the drop is tallied as SendFailed rather than
// as traffic, so the sent/received mirror holds for delivered messages.
func (e *Endpoint) Send(to int, payload Message) {
	n := e.fabric.net
	bytes := payload.Bytes()
	start := e.proc.Now()
	e.proc.Sleep(n.PostOverheadSec + n.transferTime(bytes))
	now := e.proc.Now()
	e.stats.CommTime += now - start
	// The posting cost is real even when the peer is dead and the
	// message carries no traffic; the span keeps the sender's lane
	// gap-free.
	e.fabric.tr.Span(e.index, obs.SpanComm, start, now, int64(to), bytes)
	dst := e.fabric.endpoints[to]
	if dst.proc.Failed() {
		// No send mark: marks mirror the delivered-traffic counters. The
		// delivery is still scheduled: it lands on a failed process and
		// is routed to the kernel's dead-letter hook, which is how the
		// recovery layer salvages work posted into the void (e.g.
		// streamlines offloaded to a peer that just died).
		e.stats.SendFailed++
	} else {
		e.stats.MsgsSent++
		e.stats.BytesSent += bytes
		e.fabric.tr.Mark(e.index, obs.MarkSend, now, int64(to), bytes)
	}
	e.proc.Send(dst.proc, Envelope{From: e.index, Payload: payload}, n.LatencySec)
}

// recvCharge applies the receiver-side cost of one delivered envelope.
// Local envelopes (From < 0: death notifications and recovery
// adoptions) never crossed the wire, so they charge no overhead and
// touch no traffic counters.
func (e *Endpoint) recvCharge(env Envelope) {
	if env.From < 0 {
		return
	}
	n := e.fabric.net
	start := e.proc.Now()
	e.inHand = env
	e.hasInHand = true
	e.proc.Sleep(n.RecvOverheadSec)
	e.hasInHand = false
	bytes, now := env.Payload.Bytes(), e.proc.Now()
	e.stats.CommTime += now - start
	e.stats.MsgsRecv++
	e.stats.BytesRecv += bytes
	e.fabric.tr.Span(e.index, obs.SpanComm, start, now, int64(env.From), bytes)
	e.fabric.tr.Mark(e.index, obs.MarkRecv, now, int64(env.From), bytes)
}

// Recv blocks until a message arrives and returns it; receive overhead is
// charged as communication time.
func (e *Endpoint) Recv() Envelope {
	env := e.proc.Recv().(Envelope)
	e.recvCharge(env)
	return env
}

// RecvUntil blocks until a message arrives or the virtual clock reaches
// deadline, whichever comes first. On timeout it reports false and
// charges nothing; a delivered message is charged receive overhead
// exactly like Recv. Workers stalled on a future seed release use it to
// stay responsive to messages while parked (DESIGN.md §9).
func (e *Endpoint) RecvUntil(deadline float64) (Envelope, bool) {
	raw, ok := e.proc.RecvUntil(deadline)
	if !ok {
		return Envelope{}, false
	}
	env := raw.(Envelope)
	e.recvCharge(env)
	return env, true
}

// TryRecv returns a pending message without blocking.
func (e *Endpoint) TryRecv() (Envelope, bool) {
	raw, ok := e.proc.TryRecv()
	if !ok {
		return Envelope{}, false
	}
	env := raw.(Envelope)
	e.recvCharge(env)
	return env, true
}

// Pending returns the number of delivered-but-unread messages.
func (e *Endpoint) Pending() int { return e.proc.Pending() }

// Broadcast sends payload to every other endpoint (simple linear
// broadcast, charged per message like MPI without collectives).
func (e *Endpoint) Broadcast(payload Message) {
	for i := range e.fabric.endpoints {
		if i != e.index {
			e.Send(i, payload)
		}
	}
}

// Sized is a trivial Message carrying only a byte size; control messages
// embed it.
type Sized int64

// Bytes implements Message.
func (s Sized) Bytes() int64 { return int64(s) }

// LocalFrom is the sender index of envelopes that did not cross the
// wire: death notifications and the recovery layer's adoption messages.
// recvCharge recognizes it and applies no communication cost.
const LocalFrom = -1

// Death notifies a watcher that a peer processor failed. It is
// delivered as a local envelope (From == LocalFrom) one network latency
// after the fault instant — the virtual time it takes the machine's
// health monitoring to observe the loss.
type Death struct {
	// Peer is the endpoint index of the failed processor.
	Peer int
}

// Bytes implements Message; a death notification is a local
// observation, not wire traffic.
func (Death) Bytes() int64 { return 0 }

// WatchPeer registers this endpoint for a Death{peer} notification,
// delivered to its inbox one network latency after the peer fails (or
// after the call, if the peer is already dead). Notifications for one
// death arrive in watch-registration order — the deterministic
// tie-break for survivors reacting to the same loss.
func (e *Endpoint) WatchPeer(peer int) {
	dst := e.fabric.endpoints[peer]
	e.proc.Watch(dst.proc, Envelope{From: LocalFrom, Payload: Death{Peer: peer}}, e.fabric.net.LatencySec)
}

// InHand returns the envelope this endpoint had popped from its inbox
// but was still paying receive overhead on — the one place a delivered
// message lives in neither the inbox nor algorithm state. The recovery
// layer checks it when the endpoint's processor dies mid-charge.
func (e *Endpoint) InHand() (Envelope, bool) { return e.inHand, e.hasInHand }
