package obs

import "math"

// Digest is a mergeable log-bucketed histogram for percentile
// summaries: constant memory, deterministic, and additive — merging
// per-cell digests in any order yields the same result, which is what
// lets slbench fold campaign cells together. Count, Sum, Min and Max
// are exact; quantiles are bucket-resolution approximations with
// relative error bounded by one bucket width (2^(1/16) ≈ 4.4%).
type Digest struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [digestBuckets]int64
}

const (
	// 16 buckets per octave over [digestFloor, digestFloor·2^64):
	// 1 ps .. ~2·10^7 virtual seconds, wide enough for any duration or
	// step count this simulation produces.
	digestBuckets    = 1024
	bucketsPerOctave = 16
	digestFloor      = 1e-12
)

func bucketOf(v float64) int {
	if v <= digestFloor {
		return 0
	}
	i := int(math.Log2(v/digestFloor) * bucketsPerOctave)
	if i < 0 {
		return 0
	}
	if i >= digestBuckets {
		return digestBuckets - 1
	}
	return i
}

// Add folds one sample into the digest. Negative samples are clamped
// to zero (they cannot occur; clamping keeps the digest total).
func (d *Digest) Add(v float64) {
	if v < 0 {
		v = 0
	}
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if d.count == 0 || v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
	d.buckets[bucketOf(v)]++
}

// Count returns the number of samples folded in.
func (d *Digest) Count() int64 { return d.count }

// Sum returns the exact sum of all samples.
func (d *Digest) Sum() float64 { return d.sum }

// quantile returns the approximate q-quantile (q in [0, 1]), clamped
// to the exact observed [min, max]. Zero if the digest is empty.
func (d *Digest) quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(d.count)))
	if rank <= 1 {
		return d.min
	}
	if rank >= d.count {
		return d.max
	}
	var cum int64
	for i := range d.buckets {
		cum += d.buckets[i]
		if cum >= rank {
			// Upper bound of bucket i, clamped into the exact range.
			v := digestFloor * math.Exp2(float64(i+1)/bucketsPerOctave)
			if v < d.min {
				v = d.min
			}
			if v > d.max {
				v = d.max
			}
			return v
		}
	}
	return d.max
}

// DigestSummary is the exported percentile block for one distribution.
type DigestSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary renders the digest as its exported percentile block.
func (d *Digest) Summary() DigestSummary {
	return DigestSummary{
		Count: d.count,
		Sum:   d.sum,
		Min:   d.min,
		Max:   d.max,
		P50:   d.quantile(0.50),
		P95:   d.quantile(0.95),
		P99:   d.quantile(0.99),
	}
}

// Report is the percentile view of one recorded run (or one campaign
// cell): total event volume, the event-stream fingerprint, and the four
// tracked distributions. Reports from repeated runs of the same
// configuration are identical — the determinism tests compare them
// across serial and parallel campaign execution.
type Report struct {
	// Events and Bytes are the trace meta-counters (also surfaced as
	// the trace-ev/trace-by metrics columns).
	Events int64 `json:"events"`
	Bytes  int64 `json:"bytes"`
	// Hash fingerprints the full event stream (FNV-1a, hex-free
	// decimal for JSON friendliness).
	Hash uint64 `json:"events_hash"`

	Stall      DigestSummary `json:"stall_sec"`
	IOQueue    DigestSummary `json:"io_queue_sec"`
	MsgLatency DigestSummary `json:"msg_latency_sec"`
	Steps      DigestSummary `json:"streamline_steps"`
}

// Report summarizes everything recorded so far.
func (r *Recorder) Report() Report {
	var events, bytes int64
	for i := range r.counts {
		events += r.counts[i].events
		bytes += r.counts[i].bytes
	}
	return Report{
		Events:     events,
		Bytes:      bytes,
		Hash:       r.hash,
		Stall:      r.stall.Summary(),
		IOQueue:    r.ioq.Summary(),
		MsgLatency: r.msglat.Summary(),
		Steps:      r.steps.Summary(),
	}
}
