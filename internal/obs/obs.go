// Package obs is the deterministic virtual-time tracing and time-series
// subsystem: the sim kernel, comm fabric, block store and the core
// algorithms emit structured events (processor state spans, block
// traffic, message traffic, steal/token/recovery marks) into a Recorder.
// A nil *Recorder is tracing off: Span and Mark on it are inlined no-ops,
// so an emission site is one unguarded call.
//
// Everything in this package is derived from *virtual* time — the
// deterministic simulation clock — so a trace is a pure function of the
// run configuration: byte-identical across repeated runs and across
// campaign parallelism. The recorder must never feed anything back into
// the simulation (no kernel events, no extra sleeps); it only observes
// times the simulation already computed, which is what keeps golden
// digests and metrics bit-identical with tracing on or off (the two
// TraceEvents/TraceBytes meta-counters excepted, by definition).
//
// Three consumers sit on top:
//
//   - WriteChromeTrace exports the event list as Chrome trace-event /
//     Perfetto JSON, one timeline lane per processor.
//   - Series resamples the events into a fixed-interval virtual-time
//     series (active streamlines, I/O queue depth, resident blocks,
//     busy fractions), written as CSV.
//   - Report folds stall, I/O-queue, message-latency and step-count
//     distributions into percentile digests, one report per run.
package obs

import (
	"math"
	"sort"
)

// Kind identifies one trace event type. Kinds up to and including
// SpanIdle are activity spans (Dur > 0, a processor's timeline); the
// rest are instantaneous marks (Dur == 0).
type Kind uint8

const (
	// SpanCompute is integration work: A = streamline ID, B = steps.
	SpanCompute Kind = iota
	// SpanIO is a block transfer from disk (demand read or the wait for
	// an in-flight prefetch): A = bytes.
	SpanIO
	// SpanIOQueue is time queued for a busy I/O server: A = bytes.
	SpanIOQueue
	// SpanComm is messaging overhead charged by the comm fabric:
	// A = peer endpoint, B = bytes.
	SpanComm
	// SpanIdle is a message wait — blocked in Recv/RecvUntil with
	// nothing to do. Resource and event waits are excluded: those are
	// already covered by the I/O spans that contain them.
	SpanIdle

	// MarkBlockLoad is a block entering the cache: A = block ID.
	MarkBlockLoad
	// MarkBlockEvict is an LRU eviction: A = block ID.
	MarkBlockEvict
	// MarkPrefetch is a speculative read claiming an idle I/O server:
	// A = block ID.
	MarkPrefetch
	// MarkSend is a delivered message: A = destination endpoint,
	// B = bytes. Sends to dead peers are not marked (they carry no
	// traffic), matching the MsgsSent counter.
	MarkSend
	// MarkRecv is a received message: A = source endpoint, B = bytes.
	MarkRecv
	// MarkStealProbe is a steal request sent to a victim: A = victim.
	MarkStealProbe
	// MarkStealHit is a successful steal reply arriving: A = victim,
	// B = streamlines gained.
	MarkStealHit
	// MarkTokenPass is the termination token moving on: A = next holder.
	MarkTokenPass
	// MarkRelease is a scheduled seed entering circulation after its
	// injection time arrived: A = streamline ID. Seeds released at t=0
	// are active from the start and are not marked.
	MarkRelease
	// MarkPark is a processor going idle against its own injection
	// schedule (a counted release stall begins).
	MarkPark
	// MarkComplete is a streamline finishing: A = streamline ID,
	// B = integration steps.
	MarkComplete
	// MarkKill is a fail-stop fault killing this processor.
	MarkKill
	// MarkAdopt is salvaged work re-homed here after a peer's death:
	// A = seeds adopted.
	MarkAdopt
	// MarkFailover is a slave promoting itself to master: A = surviving
	// flock size, B = salvaged seeds taken over with the role.
	MarkFailover

	numKinds
)

var kindNames = [numKinds]string{
	"compute", "io", "ioqueue", "comm", "idle",
	"block-load", "block-evict", "prefetch", "send", "recv",
	"steal-probe", "steal-hit", "token-pass", "release", "park",
	"complete", "kill", "adopt", "failover",
}

// String returns the stable lower-case event name used in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// isSpan reports whether the kind is an activity span (vs a mark).
func (k Kind) isSpan() bool { return k <= SpanIdle }

// Event is one trace record. Span events cover [Time, Time+Dur); marks
// have Dur == 0. A and B are kind-specific arguments (see the Kind
// constants). Proc is the dense processor index — spawn order, endpoint
// index and stats index all agree.
type Event struct {
	Time float64
	Dur  float64
	A, B int64
	Proc int32
	Kind Kind
}

// EventBytes is the accounting size of one recorded event, the unit of
// the TraceBytes meta-counter (the in-memory struct size: two float64,
// two int64, an int32 and a Kind padded to 8 bytes).
const EventBytes = 40

// Recorder accumulates trace events for one run. It is not safe for
// concurrent use — the deterministic kernel runs one process at a time,
// so each run (or campaign cell) owns exactly one Recorder, which is
// what makes traces byte-identical across campaign parallelism.
//
// A Recorder always maintains the per-processor event counts, the
// event-stream hash and the percentile digests; only a Recorder from
// New additionally keeps the full event list for export. NewDigest is
// the constant-memory mode used per campaign cell.
type Recorder struct {
	keep   bool
	events []Event
	counts []procCount
	hash   uint64

	// releases holds the seed release schedule (one virtual time per
	// seed), the reference for the active-streamline series.
	releases []float64

	stall  Digest // SpanIdle durations
	ioq    Digest // SpanIOQueue durations
	msglat Digest // send→recv latency per delivered message
	steps  Digest // per-streamline step counts at completion

	// pending holds in-flight send times per (from, to) endpoint pair.
	// The fabric preserves per-pair delivery order, so a FIFO match
	// pairs each MarkRecv with its MarkSend. The map is only ever
	// indexed by key, never ranged.
	pending map[pairKey]*fifo
}

type procCount struct{ events, bytes int64 }

type pairKey struct{ from, to int32 }

type fifo struct {
	times []float64
	head  int
}

// New returns a Recorder that keeps the full event list, for trace
// export and series resampling.
func New() *Recorder {
	return &Recorder{keep: true, hash: fnvOffset, pending: map[pairKey]*fifo{}}
}

// NewDigest returns a constant-memory Recorder: digests, counts and the
// event-stream hash accumulate but events are not stored. Campaign
// cells use this mode.
func NewDigest() *Recorder {
	return &Recorder{hash: fnvOffset, pending: map[pairKey]*fifo{}}
}

// SetNumProcs pre-sizes the per-processor accounting so every
// processor reports a count (and a trace lane) even if it never emits.
func (r *Recorder) SetNumProcs(n int) {
	if n > len(r.counts) {
		r.counts = append(r.counts, make([]procCount, n-len(r.counts))...)
	}
}

// SetReleases records the seed release schedule (one virtual time per
// seed, any order). The active-streamline series counts a streamline
// from its release time to its MarkComplete.
func (r *Recorder) SetReleases(times []float64) {
	r.releases = append(r.releases[:0], times...)
	sort.Float64s(r.releases)
}

// Span records an activity span covering [start, end) on processor
// proc. Zero-length spans are dropped: they render to nothing and
// would only bloat the trace. On a nil Recorder it records nothing.
func (r *Recorder) Span(proc int, k Kind, start, end float64, a, b int64) {
	if r != nil {
		r.span(proc, k, start, end, a, b)
	}
}

func (r *Recorder) span(proc int, k Kind, start, end float64, a, b int64) {
	if end <= start {
		return
	}
	dur := end - start
	switch k {
	case SpanIdle:
		r.stall.Add(dur)
	case SpanIOQueue:
		r.ioq.Add(dur)
	}
	r.add(Event{Time: start, Dur: dur, A: a, B: b, Proc: int32(proc), Kind: k})
}

// Mark records an instantaneous event at time t on processor proc. On a
// nil Recorder it records nothing.
func (r *Recorder) Mark(proc int, k Kind, t float64, a, b int64) {
	if r != nil {
		r.mark(proc, k, t, a, b)
	}
}

func (r *Recorder) mark(proc int, k Kind, t float64, a, b int64) {
	switch k {
	case MarkSend:
		q := r.pending[pairKey{int32(proc), int32(a)}]
		if q == nil {
			q = &fifo{}
			r.pending[pairKey{int32(proc), int32(a)}] = q
		}
		q.times = append(q.times, t)
	case MarkRecv:
		if q := r.pending[pairKey{int32(a), int32(proc)}]; q != nil && q.head < len(q.times) {
			r.msglat.Add(t - q.times[q.head])
			q.head++
		}
	case MarkComplete:
		r.steps.Add(float64(b))
	}
	r.add(Event{Time: t, A: a, B: b, Proc: int32(proc), Kind: k})
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (r *Recorder) add(e Event) {
	if int(e.Proc) >= len(r.counts) {
		r.SetNumProcs(int(e.Proc) + 1)
	}
	c := &r.counts[e.Proc]
	c.events++
	c.bytes += EventBytes
	// FNV-1a over the event's canonical binary encoding: a cheap
	// always-on fingerprint of the full event stream, the handle the
	// determinism tests use to compare traces across runs and across
	// campaign parallelism without storing events.
	h := r.hash
	h = fnvWord(h, math.Float64bits(e.Time))
	h = fnvWord(h, math.Float64bits(e.Dur))
	h = fnvWord(h, uint64(e.A))
	h = fnvWord(h, uint64(e.B))
	h = fnvWord(h, uint64(uint32(e.Proc))<<8|uint64(e.Kind))
	r.hash = h
	if r.keep {
		r.events = append(r.events, e)
	}
}

func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime
		w >>= 8
	}
	return h
}

// Events returns the recorded event list in emission order (empty for a
// NewDigest recorder). The kernel runs one process at a time, so
// emission order is the deterministic total order of the run.
func (r *Recorder) Events() []Event { return r.events }

// Hash returns the FNV-1a fingerprint of the event stream recorded so
// far. Two runs of the same configuration produce the same hash.
func (r *Recorder) Hash() uint64 { return r.hash }

// NumProcs returns the number of processor lanes known to the recorder.
func (r *Recorder) NumProcs() int { return len(r.counts) }

// ProcCount returns the events recorded for processor i and their
// accounting size in bytes (EventBytes each); zero on a nil Recorder.
func (r *Recorder) ProcCount(i int) (events, bytes int64) {
	if r == nil || i < 0 || i >= len(r.counts) {
		return 0, 0
	}
	return r.counts[i].events, r.counts[i].bytes
}
