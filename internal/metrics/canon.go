// Canonical wire encoding of run summaries.
//
// A Summary is a pure function of its experiments.Key (the runs are
// deterministic simulations), which is what lets the campaign service
// cache summaries on disk content-addressed by key digest and promise
// byte-identical responses across restarts (DESIGN.md §14). That
// promise needs a byte-stable encoding, pinned here:
//
//   - The bytes are those encoding/json writes for the Summary struct:
//     field order is the declaration order, names are the Go field names
//     (matching the BENCH_*.json trajectory artifacts), and float64
//     values use Go's shortest round-trip formatting.
//     FuzzSummaryEncoding holds the codec to json.Marshal.
//   - The codec is one field table, built from the struct at init, that
//     CanonicalJSON appends and ParseSummary scans in one pass.
//     ParseSummary accepts exactly the canonical encoding: a missing,
//     unknown, repeated or reordered field, whitespace, or a number
//     spelled otherwise than the encoder spells it is an error, so
//     decode∘encode is the identity on the bytes as well as the values.
//   - The layout has no version of its own. The persistent cache's
//     entryVersion orphans entries written under an older layout
//     (which ParseSummary refuses anyway): internal/serve's
//     TestEntryVersionPinsCodecs pins the bytes of Summary{} beside it
//     and fails until a layout change bumps it.
//
// TestSummaryCanonicalPinned holds a prefix of the exact bytes.
package metrics

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// summaryField is one Summary field of the codec's table: the bytes
// that open it in the canonical encoding and whether it is a float.
type summaryField struct {
	prefix string // `{"NumProcs":` for the first field, `,"WallClock":` after
	float  bool
}

// summaryFields is Summary's field table, in declaration order.
var summaryFields = summaryFieldTable()

func summaryFieldTable() []summaryField {
	t := reflect.TypeFor[Summary]()
	fields := make([]summaryField, t.NumField())
	for i := range fields {
		f := t.Field(i)
		k := f.Type.Kind()
		if !f.IsExported() || f.Tag != "" || (k != reflect.Int && k != reflect.Int64 && k != reflect.Float64) {
			panic("metrics: the summary codec has no rule for field " + f.Name)
		}
		fields[i] = summaryField{`,"` + f.Name + `":`, k == reflect.Float64}
	}
	fields[0].prefix = "{" + fields[0].prefix[1:]
	return fields
}

// appendValue appends the field value v as encoding/json writes it. A
// float takes 'f' format, or 'e' with a one-digit negative exponent
// unpadded when its magnitude is below 1e-6 or at least 1e21; NaN and
// ±Inf have no encoding.
func (f summaryField) appendValue(b []byte, v reflect.Value) ([]byte, error) {
	if !f.float {
		return strconv.AppendInt(b, v.Int(), 10), nil
	}
	x := v.Float()
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil, fmt.Errorf("metrics: summary has no canonical encoding: %s%v", f.prefix, x)
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && string(b[n-4:n-1]) == "e-0" {
		b = append(b[:n-2], b[n-1])
	}
	return b, nil
}

// CanonicalJSON renders the summary's canonical wire encoding: one JSON
// object, fields in Summary declaration order, floats in shortest
// round-trip form. The encoding is byte-stable — equal summaries encode
// identically, and ParseSummary(enc) re-encodes to exactly enc — which
// is what makes a disk-cached summary byte-identical to a freshly
// computed one. An error is only possible for non-finite floats, which
// a well-formed Summary never contains.
func (s Summary) CanonicalJSON() ([]byte, error) {
	v := reflect.ValueOf(&s).Elem()
	var buf [2048]byte // past the longest encoding (~1.4 KB), so one allocation
	b := buf[:0]
	for i, f := range summaryFields {
		var err error
		if b, err = f.appendValue(append(b, f.prefix...), v.Field(i)); err != nil {
			return nil, err
		}
	}
	return bytes.Clone(append(b, '}')), nil
}

// ParseSummary decodes a canonical summary encoding and accepts nothing
// else: each field in order, each number exactly as CanonicalJSON writes
// it, and no byte after the closing brace. So an entry written under
// another layout, or whose bytes a response could not splice as a fresh
// computation's, is refused.
func ParseSummary(data []byte) (Summary, error) {
	var s Summary
	v := reflect.ValueOf(&s).Elem()
	rest := data
	var buf [32]byte // room for any one number's encoding
	for i, f := range summaryFields {
		var ok bool
		if rest, ok = bytes.CutPrefix(rest, []byte(f.prefix)); !ok {
			return Summary{}, fmt.Errorf("metrics: bad summary encoding: want %s at byte %d", f.prefix, len(data)-len(rest))
		}
		n := 0
		for n < len(rest) && rest[n] != ',' && rest[n] != '}' {
			n++
		}
		// A token that does not parse leaves a zero or clamped value, which
		// does not encode back to it, so the one comparison refuses it.
		tok := rest[:n]
		fv := v.Field(i)
		if f.float {
			x, _ := strconv.ParseFloat(string(tok), 64)
			fv.SetFloat(x)
		} else {
			x, _ := strconv.ParseInt(string(tok), 10, 64)
			fv.SetInt(x)
		}
		if enc, err := f.appendValue(buf[:0], fv); err != nil || !bytes.Equal(enc, tok) {
			return Summary{}, fmt.Errorf("metrics: bad summary encoding: %s%s is not canonical", f.prefix, tok)
		}
		rest = rest[n:]
	}
	if string(rest) != "}" {
		return Summary{}, fmt.Errorf("metrics: bad summary encoding: want } at byte %d", len(data)-len(rest))
	}
	return s, nil
}
