package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WriteChromeTrace writes the recorded events as Chrome trace-event
// JSON (the "JSON object format" Perfetto and chrome://tracing load):
// one pid, one tid per processor, thread-name metadata, "X" complete
// events for spans and "i" instant events for marks. Virtual seconds
// map to trace microseconds.
//
// The output is rendered with fixed-format number encoding, so it is
// byte-identical across runs of the same configuration.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}
	for i := range r.counts {
		comma()
		bw.WriteString(`{"name":"thread_name","ph":"M","pid":0,"tid":`)
		bw.WriteString(strconv.Itoa(i))
		bw.WriteString(`,"args":{"name":"proc `)
		bw.WriteString(strconv.Itoa(i))
		bw.WriteString(`"}}`)
	}
	var buf []byte
	us := func(sec float64) {
		buf = strconv.AppendFloat(buf[:0], sec*1e6, 'f', 3, 64)
		bw.Write(buf)
	}
	for i := range r.events {
		e := &r.events[i]
		comma()
		bw.WriteString(`{"name":"`)
		bw.WriteString(e.Kind.String())
		if e.Kind.isSpan() {
			bw.WriteString(`","cat":"span","ph":"X","ts":`)
			us(e.Time)
			bw.WriteString(`,"dur":`)
			us(e.Dur)
		} else {
			bw.WriteString(`","cat":"mark","ph":"i","s":"t","ts":`)
			us(e.Time)
		}
		bw.WriteString(`,"pid":0,"tid":`)
		bw.WriteString(strconv.Itoa(int(e.Proc)))
		aName, bName := argNames(e.Kind)
		bw.WriteString(`,"args":{"`)
		bw.WriteString(aName)
		bw.WriteString(`":`)
		buf = strconv.AppendInt(buf[:0], e.A, 10)
		bw.Write(buf)
		bw.WriteString(`,"`)
		bw.WriteString(bName)
		bw.WriteString(`":`)
		buf = strconv.AppendInt(buf[:0], e.B, 10)
		bw.Write(buf)
		bw.WriteString(`}}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// argNames labels the A/B arguments per kind for readable traces.
func argNames(k Kind) (a, b string) {
	switch k {
	case SpanCompute:
		return "streamline", "steps"
	case SpanIO, SpanIOQueue:
		return "bytes", "b"
	case SpanComm, MarkSend, MarkRecv:
		return "peer", "bytes"
	case MarkBlockLoad, MarkBlockEvict, MarkPrefetch:
		return "block", "b"
	case MarkStealProbe, MarkStealHit:
		return "victim", "gained"
	case MarkTokenPass:
		return "next", "b"
	case MarkRelease, MarkComplete:
		return "streamline", "steps"
	case MarkAdopt:
		return "seeds", "b"
	case MarkFailover:
		return "flock", "seeds"
	default:
		return "a", "b"
	}
}
