package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// Sample is one row of the fixed-interval virtual-time series. Gauges
// (Active, IOQueue, Resident) are sampled at the instant Time; the busy
// fractions cover the interval starting at Time.
type Sample struct {
	// Time is the sample instant in virtual seconds.
	Time float64 `json:"t"`
	// Active is the number of streamlines in circulation: seeds whose
	// release time has arrived minus completions.
	Active int64 `json:"active"`
	// IOQueue is the number of processors queued for a busy I/O server.
	IOQueue int64 `json:"io_queue"`
	// Resident is the number of cache-resident blocks cluster-wide
	// (loads minus evictions).
	Resident int64 `json:"resident_blocks"`
	// BusyMean and BusyMax are the mean and maximum per-processor busy
	// fraction (compute + I/O + queueing + comm) over the interval
	// [Time, Time+interval), clamped to the end of the run.
	BusyMean float64 `json:"busy_mean"`
	BusyMax  float64 `json:"busy_max"`
}

// Series resamples the recorded events into a fixed-interval series.
// interval <= 0 picks run-length/256. The recorder must have been
// built with New (kept events); a digest-only recorder returns nil.
// Resampling is pure post-processing: nothing here ever touches the
// simulation, so sampling cannot perturb it.
func (r *Recorder) Series(interval float64) []Sample {
	if !r.keep || len(r.events) == 0 {
		return nil
	}
	var end float64
	for i := range r.events {
		if t := r.events[i].Time + r.events[i].Dur; t > end {
			end = t
		}
	}
	if end <= 0 {
		return nil
	}
	if interval <= 0 {
		interval = end / 256
	}
	n := int(math.Ceil(end/interval)) + 1 // samples at 0, dt, ..., covering end
	nprocs := len(r.counts)
	if nprocs == 0 {
		nprocs = 1
	}
	// atOrAfter maps an event time to the first sample instant >= t.
	atOrAfter := func(t float64) int {
		i := int(math.Ceil(t/interval - 1e-9))
		if i < 0 {
			i = 0
		}
		if i > n {
			i = n
		}
		return i
	}
	dActive := make([]int64, n+1)
	dResident := make([]int64, n+1)
	depth := make([]int64, n)
	busy := make([]float64, nprocs*n)
	for _, t := range r.releases {
		if i := atOrAfter(t); i < n {
			dActive[i]++
		}
	}
	for i := range r.events {
		e := &r.events[i]
		switch e.Kind {
		case MarkComplete:
			if j := atOrAfter(e.Time); j < n {
				dActive[j]--
			}
		case MarkBlockLoad:
			if j := atOrAfter(e.Time); j < n {
				dResident[j]++
			}
		case MarkBlockEvict:
			if j := atOrAfter(e.Time); j < n {
				dResident[j]--
			}
		}
		if !e.Kind.isSpan() || e.Kind == SpanIdle {
			continue
		}
		s, t := e.Time, e.Time+e.Dur
		if e.Kind == SpanIOQueue {
			// Depth gauge: the span covers sample instants in [s, t).
			for j := atOrAfter(s); j < n && float64(j)*interval < t; j++ {
				depth[j]++
			}
		}
		// Busy fraction: spread the span over the bins it overlaps.
		p := int(e.Proc)
		if p >= nprocs {
			continue
		}
		for j := int(s / interval); j < n; j++ {
			lo, hi := float64(j)*interval, float64(j+1)*interval
			if lo >= t {
				break
			}
			if s > lo {
				lo = s
			}
			if t < hi {
				hi = t
			}
			if hi > lo {
				busy[p*n+j] += hi - lo
			}
		}
	}
	samples := make([]Sample, n)
	var active, resident int64
	for j := 0; j < n; j++ {
		active += dActive[j]
		resident += dResident[j]
		width := interval
		if e := end - float64(j)*interval; e < width {
			width = e
		}
		var sum, maxv float64
		if width > 0 {
			for p := 0; p < nprocs; p++ {
				f := busy[p*n+j] / width
				if f > 1 {
					f = 1 // float slop at bin edges
				}
				sum += f
				if f > maxv {
					maxv = f
				}
			}
		}
		samples[j] = Sample{
			Time:     float64(j) * interval,
			Active:   active,
			IOQueue:  depth[j],
			Resident: resident,
			BusyMean: sum / float64(nprocs),
			BusyMax:  maxv,
		}
	}
	return samples
}

// ActivePeak returns the maximum Active gauge over the series — the
// high-water mark of streamlines in circulation.
func ActivePeak(samples []Sample) int64 {
	var peak int64
	for i := range samples {
		if samples[i].Active > peak {
			peak = samples[i].Active
		}
	}
	return peak
}

// WriteSeriesCSV writes the series with a header row, fixed-format
// floats (byte-identical across runs).
func WriteSeriesCSV(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("t,active,io_queue,resident_blocks,busy_mean,busy_max\n")
	var buf []byte
	for i := range samples {
		s := &samples[i]
		buf = strconv.AppendFloat(buf[:0], s.Time, 'g', 17, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.Active, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.IOQueue, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.Resident, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, s.BusyMean, 'g', 17, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, s.BusyMax, 'g', 17, 64)
		buf = append(buf, '\n')
		bw.Write(buf)
	}
	return bw.Flush()
}

// WriteSeriesJSON writes the series as a JSON array of Sample objects,
// rendered with the same fixed-format floats as the CSV.
func WriteSeriesJSON(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	bw.WriteByte('[')
	var buf []byte
	f := func(v float64) {
		buf = strconv.AppendFloat(buf[:0], v, 'g', 17, 64)
		bw.Write(buf)
	}
	for i := range samples {
		if i > 0 {
			bw.WriteByte(',')
		}
		s := &samples[i]
		bw.WriteString(`{"t":`)
		f(s.Time)
		bw.WriteString(`,"active":`)
		buf = strconv.AppendInt(buf[:0], s.Active, 10)
		bw.Write(buf)
		bw.WriteString(`,"io_queue":`)
		buf = strconv.AppendInt(buf[:0], s.IOQueue, 10)
		bw.Write(buf)
		bw.WriteString(`,"resident_blocks":`)
		buf = strconv.AppendInt(buf[:0], s.Resident, 10)
		bw.Write(buf)
		bw.WriteString(`,"busy_mean":`)
		f(s.BusyMean)
		bw.WriteString(`,"busy_max":`)
		f(s.BusyMax)
		bw.WriteString(`}`)
	}
	bw.WriteString("]\n")
	return bw.Flush()
}
