// Package metrics collects the per-processor performance counters the
// paper's evaluation reports: wall clock time, I/O time, communication
// time, block loads/purges (block efficiency), plus supporting counters
// used by the analysis (integration steps, bytes moved, peak memory).
package metrics

import (
	"fmt"
	"strings"
)

// ProcStats accumulates counters for one simulated processor. All times
// are virtual seconds.
type ProcStats struct {
	Proc int

	ComputeTime float64 // time charged to streamline integration
	IOTime      float64 // time blocked reading blocks
	IOQueueTime float64 // subset of IOTime spent queued for a shared I/O server
	CommTime    float64 // time posting/handling sends and receives
	IdleTime    float64 // time blocked waiting for work/messages
	EndTime     float64 // virtual time when the processor finished

	Steps        int64 // accepted integration steps
	BlocksLoaded int64 // block reads from disk
	BlocksPurged int64 // cache evictions
	MsgsSent     int64
	// MsgsRecv and BytesRecv are exact mirrors of the sent totals in the
	// lossless simulated network (pinned by TestCounterRoundTrip), so the
	// Summary aggregates only the sent side.
	MsgsRecv  int64
	BytesSent int64
	BytesRecv int64

	StreamlinesCompleted int64
	PeakMemoryBytes      int64

	// Work-stealing counters (zero for the other algorithms): probes this
	// processor sent, probes that returned streamlines, and termination
	// tokens this processor forwarded around the ring.
	StealAttempts int64
	StealHits     int64
	TokensPassed  int64

	// Prefetch (asynchronous predictive I/O, internal/prefetch) counters,
	// zero when prefetching is off: reads issued ahead of demand, issued
	// reads whose block was then actually used, prefetched blocks evicted
	// before any use, and the I/O seconds that overlapped computation
	// instead of stalling a processor (the subsystem's whole point).
	PrefetchIssued int64
	PrefetchHits   int64
	PrefetchWasted int64
	IOHiddenTime   float64

	// Injection (staggered seed release, DESIGN.md §9) counters, zero
	// when every seed releases at t0: the peak number of simultaneously
	// active (released, unterminated) streamlines resident on this
	// processor, how many times it ran completely dry of released work
	// and had to park until the next scheduled release, and the virtual
	// seconds it spent parked that way. Release stalls are workload
	// starvation, not machine contention, so they are deliberately NOT
	// part of busy time (the Imbalance metric).
	ActivePeak       int64
	ReleaseStalls    int64
	ReleaseStallTime float64

	// Fault-recovery (internal/faults) counters, zero on a reliable
	// machine: ProcsLost marks the processor itself as a scheduled
	// casualty (1 on the victim's own record); SeedsAdopted counts
	// stranded streamlines this processor re-seeded from a dead peer;
	// RingReforms counts termination tokens this processor regenerated
	// after the holder died (work stealing); MasterFailovers counts
	// promotions of this processor from slave to master (hybrid);
	// SendFailed counts messages dropped because the destination was
	// already dead.
	ProcsLost       int64
	SeedsAdopted    int64
	RingReforms     int64
	MasterFailovers int64
	SendFailed      int64

	// Trace (internal/obs) meta-counters, zero when no recorder is
	// installed: events this processor emitted into the run's trace and
	// their accounting size in bytes. These describe the observer, not
	// the simulation — they are the one deliberate exception to the
	// tracing-on/off bit-identity of every other column.
	TraceEvents int64
	TraceBytes  int64

	// Pathline (unsteady-workload) counters, zero for steady runs:
	// integration steps taken in time-dependent advection, and epoch
	// boundaries crossed — each crossing is a block transition that
	// exists only because the data is time-sliced, so the gap between
	// EpochCrossings and total block transitions separates temporal from
	// spatial block traffic.
	PathlineSteps  int64
	EpochCrossings int64
}

// ObserveMemory records a memory high-water mark.
func (s *ProcStats) ObserveMemory(bytes int64) {
	if bytes > s.PeakMemoryBytes {
		s.PeakMemoryBytes = bytes
	}
}

// Collector owns the stats of all processors in one run.
type Collector struct {
	stats []ProcStats
}

// NewCollector creates a collector for n processors.
func NewCollector(n int) *Collector {
	c := &Collector{stats: make([]ProcStats, n)}
	for i := range c.stats {
		c.stats[i].Proc = i
	}
	return c
}

// P returns the mutable stats of processor i.
func (c *Collector) P(i int) *ProcStats { return &c.stats[i] }

// NumProcs returns the processor count.
func (c *Collector) NumProcs() int { return len(c.stats) }

// All returns a copy of every processor's stats, ordered by processor.
func (c *Collector) All() []ProcStats {
	out := make([]ProcStats, len(c.stats))
	copy(out, c.stats)
	return out
}

// Summary aggregates a run, matching the metrics reported in the paper's
// Section 5.
type Summary struct {
	NumProcs int

	WallClock    float64 // max processor end time: the paper's total run time
	TotalIO      float64 // summed I/O time (Figures 6, 10, 14)
	TotalIOQueue float64 // subset of TotalIO spent queued for shared I/O servers
	TotalComm    float64 // summed communication time (Figures 8, 11, 15)
	TotalCompute float64
	TotalIdle    float64

	BlocksLoaded int64
	BlocksPurged int64
	// BlockEfficiency is E = (B_L - B_P) / B_L, Equation 2 of the paper
	// (Figures 7, 12, 16). When nothing was loaded, E is 1.
	BlockEfficiency float64

	MsgsSent  int64
	BytesSent int64

	Steps                int64
	StreamlinesCompleted int64
	PeakMemoryBytes      int64 // max over processors

	// StealAttempts/StealHits/TokensPassed aggregate the work-stealing
	// algorithm's probe and termination-ring traffic (zero elsewhere).
	StealAttempts int64
	StealHits     int64
	TokensPassed  int64

	// PrefetchIssued/PrefetchHits/PrefetchWasted/IOHiddenTime aggregate
	// the asynchronous-prefetch counters (zero when prefetching is off).
	PrefetchIssued int64
	PrefetchHits   int64
	PrefetchWasted int64
	IOHiddenTime   float64

	// ActivePeak (max over processors), ReleaseStalls and
	// ReleaseStallTime (sums) aggregate the staggered-injection counters
	// (zero when all seeds release at t0).
	ActivePeak       int64
	ReleaseStalls    int64
	ReleaseStallTime float64

	// ProcsLost/SeedsAdopted/RingReforms/MasterFailovers/SendFailed
	// aggregate the fault-recovery counters (zero on a reliable machine).
	ProcsLost       int64
	SeedsAdopted    int64
	RingReforms     int64
	MasterFailovers int64
	SendFailed      int64

	// PathlineSteps/EpochCrossings aggregate the unsteady-workload
	// counters (zero for steady runs).
	PathlineSteps  int64
	EpochCrossings int64

	// TraceEvents/TraceBytes aggregate the tracing meta-counters (zero
	// when no obs.Recorder is installed).
	TraceEvents int64
	TraceBytes  int64

	// Imbalance is max processor busy time over mean busy time; 1.0 is a
	// perfectly balanced run. Busy = compute + I/O + comm.
	Imbalance float64
}

// Aggregate computes the run summary.
func (c *Collector) Aggregate() Summary {
	s := Summary{NumProcs: len(c.stats)}
	var busySum, busyMax float64
	for i := range c.stats {
		p := &c.stats[i]
		if p.EndTime > s.WallClock {
			s.WallClock = p.EndTime
		}
		s.TotalIO += p.IOTime
		s.TotalIOQueue += p.IOQueueTime
		s.TotalComm += p.CommTime
		s.TotalCompute += p.ComputeTime
		s.TotalIdle += p.IdleTime
		s.BlocksLoaded += p.BlocksLoaded
		s.BlocksPurged += p.BlocksPurged
		s.MsgsSent += p.MsgsSent
		s.BytesSent += p.BytesSent
		s.Steps += p.Steps
		s.StreamlinesCompleted += p.StreamlinesCompleted
		s.StealAttempts += p.StealAttempts
		s.StealHits += p.StealHits
		s.TokensPassed += p.TokensPassed
		s.PrefetchIssued += p.PrefetchIssued
		s.PrefetchHits += p.PrefetchHits
		s.PrefetchWasted += p.PrefetchWasted
		s.IOHiddenTime += p.IOHiddenTime
		s.ProcsLost += p.ProcsLost
		s.SeedsAdopted += p.SeedsAdopted
		s.RingReforms += p.RingReforms
		s.MasterFailovers += p.MasterFailovers
		s.SendFailed += p.SendFailed
		s.PathlineSteps += p.PathlineSteps
		s.EpochCrossings += p.EpochCrossings
		s.TraceEvents += p.TraceEvents
		s.TraceBytes += p.TraceBytes
		s.ReleaseStalls += p.ReleaseStalls
		s.ReleaseStallTime += p.ReleaseStallTime
		if p.ActivePeak > s.ActivePeak {
			s.ActivePeak = p.ActivePeak
		}
		if p.PeakMemoryBytes > s.PeakMemoryBytes {
			s.PeakMemoryBytes = p.PeakMemoryBytes
		}
		busy := p.ComputeTime + p.IOTime + p.CommTime
		busySum += busy
		if busy > busyMax {
			busyMax = busy
		}
	}
	s.BlockEfficiency = BlockEfficiency(s.BlocksLoaded, s.BlocksPurged)
	if busySum > 0 && len(c.stats) > 0 {
		mean := busySum / float64(len(c.stats))
		if mean > 0 {
			s.Imbalance = busyMax / mean
		}
	}
	return s
}

// BlockEfficiency computes Equation 2 of the paper: E = (BL − BP)/BL.
// With no loads the algorithm did ideal (no) I/O, reported as 1.
func BlockEfficiency(loaded, purged int64) float64 {
	if loaded == 0 {
		return 1
	}
	return float64(loaded-purged) / float64(loaded)
}

// String renders a compact human-readable summary.
func (s Summary) String() string {
	return fmt.Sprintf(
		"procs=%d wall=%.3fs io=%.3fs comm=%.3fs compute=%.3fs E=%.3f loads=%d purges=%d msgs=%d bytes=%d steps=%d done=%d",
		s.NumProcs, s.WallClock, s.TotalIO, s.TotalComm, s.TotalCompute,
		s.BlockEfficiency, s.BlocksLoaded, s.BlocksPurged, s.MsgsSent,
		s.BytesSent, s.Steps, s.StreamlinesCompleted)
}

// Table renders rows of (label, summary) pairs as an aligned text table
// with one column per requested metric. Valid metric names: procs, wall,
// io, ioq (shared-disk queue wait), hidden (I/O time overlapped with
// compute), comm, idle, efficiency, msgs, bytes, loads, purges, steps,
// done (streamlines completed), peakmem (max per-processor bytes),
// imbalance, steals (hits/attempts), tokens, prefetch (hits/issued),
// pfwaste (prefetched blocks evicted unused), epochs (epoch crossings),
// psteps (pathline steps), apeak (peak simultaneously active released
// streamlines on one processor), rstalls (release stalls), rstall-s
// (virtual seconds parked awaiting scheduled releases), lost (processors
// killed by the fault plan), adopted (streamlines re-seeded from dead
// peers), reforms (termination tokens regenerated after a holder died),
// failovers (slave-to-master promotions), sendfail (messages dropped at
// a dead destination), trace-ev (trace events emitted when an
// obs.Recorder is installed), trace-by (their accounting bytes).
func Table(rows []TableRow, cols []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "run")
	for _, c := range cols {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s", r.Label)
		for _, c := range cols {
			fmt.Fprintf(&b, "%14s", r.format(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TableRow is one labeled summary in a rendered table.
type TableRow struct {
	Label   string
	Summary Summary
	Err     error // a failed run (e.g. OOM) renders its error text
}

func (r TableRow) format(col string) string {
	if r.Err != nil {
		return errShort(r.Err)
	}
	s := r.Summary
	switch col {
	case "procs":
		return fmt.Sprintf("%d", s.NumProcs)
	case "wall":
		return fmt.Sprintf("%.3f", s.WallClock)
	case "idle":
		return fmt.Sprintf("%.3f", s.TotalIdle)
	case "done":
		return fmt.Sprintf("%d", s.StreamlinesCompleted)
	case "peakmem":
		return fmt.Sprintf("%d", s.PeakMemoryBytes)
	case "io":
		return fmt.Sprintf("%.3f", s.TotalIO)
	case "ioq":
		return fmt.Sprintf("%.3f", s.TotalIOQueue)
	case "hidden":
		return fmt.Sprintf("%.3f", s.IOHiddenTime)
	case "comm":
		return fmt.Sprintf("%.3f", s.TotalComm)
	case "compute":
		return fmt.Sprintf("%.3f", s.TotalCompute)
	case "efficiency":
		return fmt.Sprintf("%.3f", s.BlockEfficiency)
	case "msgs":
		return fmt.Sprintf("%d", s.MsgsSent)
	case "bytes":
		return fmt.Sprintf("%d", s.BytesSent)
	case "loads":
		return fmt.Sprintf("%d", s.BlocksLoaded)
	case "purges":
		return fmt.Sprintf("%d", s.BlocksPurged)
	case "steps":
		return fmt.Sprintf("%d", s.Steps)
	case "imbalance":
		return fmt.Sprintf("%.2f", s.Imbalance)
	case "steals":
		return fmt.Sprintf("%d/%d", s.StealHits, s.StealAttempts)
	case "tokens":
		return fmt.Sprintf("%d", s.TokensPassed)
	case "prefetch":
		return fmt.Sprintf("%d/%d", s.PrefetchHits, s.PrefetchIssued)
	case "pfwaste":
		return fmt.Sprintf("%d", s.PrefetchWasted)
	case "epochs":
		return fmt.Sprintf("%d", s.EpochCrossings)
	case "psteps":
		return fmt.Sprintf("%d", s.PathlineSteps)
	case "apeak":
		return fmt.Sprintf("%d", s.ActivePeak)
	case "rstalls":
		return fmt.Sprintf("%d", s.ReleaseStalls)
	case "rstall-s":
		return fmt.Sprintf("%.3f", s.ReleaseStallTime)
	case "lost":
		return fmt.Sprintf("%d", s.ProcsLost)
	case "adopted":
		return fmt.Sprintf("%d", s.SeedsAdopted)
	case "reforms":
		return fmt.Sprintf("%d", s.RingReforms)
	case "failovers":
		return fmt.Sprintf("%d", s.MasterFailovers)
	case "sendfail":
		return fmt.Sprintf("%d", s.SendFailed)
	case "trace-ev":
		return fmt.Sprintf("%d", s.TraceEvents)
	case "trace-by":
		return fmt.Sprintf("%d", s.TraceBytes)
	default:
		return "?"
	}
}

func errShort(err error) string {
	msg := err.Error()
	if i := strings.IndexByte(msg, ':'); i > 0 && i < 12 {
		msg = msg[:i]
	}
	if len(msg) > 12 {
		msg = msg[:12]
	}
	return strings.ToUpper(msg)
}

// CSV renders rows as comma-separated values with a header, for plotting.
func CSV(rows []TableRow, cols []string) string {
	var b strings.Builder
	b.WriteString("run")
	for _, c := range cols {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(r.Label)
		for _, c := range cols {
			b.WriteByte(',')
			b.WriteString(strings.TrimSpace(r.format(c)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
