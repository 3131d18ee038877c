package canon

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// every has a field of each kind the table has a rule for, tagged and
// untagged, with and without omitempty.
type every struct {
	N     int
	I64   int64           `json:"i64"`
	F     float64         `json:"f,omitempty"`
	B     bool            `json:"b,omitempty"`
	S     string          `json:"s"`
	OptS  string          `json:"opt_s,omitempty"`
	Raw   json.RawMessage `json:",omitempty"`
	OptRw json.RawMessage `json:"opt_raw,omitempty"`
}

var everyCodec = For[every]()

// TestAppendMatchesMarshal holds Append to json.Marshal on values that
// take every branch: omitted and written optional fields (-0 and an
// empty RawMessage among the omitted), strings that need escaping, and
// each float spelling.
func TestAppendMatchesMarshal(t *testing.T) {
	raw := json.RawMessage(`{"a":[1,2]}`)
	for _, v := range []every{
		{},
		{N: -3, I64: math.MinInt64, F: 1e-7, B: true, S: `<a href="x">&</a>`, OptS: "\u2028\xff", Raw: raw, OptRw: raw},
		{F: 1e21, S: "plain"},
		{F: 123456.789, OptRw: json.RawMessage{}},
		{F: math.Copysign(0, -1), OptS: "x"},
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("kept")
		got, err := everyCodec.Append(prefix, &v)
		if err != nil || !bytes.Equal(got, append(prefix, want...)) {
			t.Errorf("%+v:\nAppend       %s, %v\njson.Marshal kept%s", v, got, err, want)
		}
	}
	// All fields omitted.
	type optional struct {
		A int `json:"a,omitempty"`
	}
	if got, err := For[optional]().Append(nil, &optional{}); err != nil || string(got) != "{}" {
		t.Errorf("all fields omitted: %s, %v; want {}", got, err)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		v := every{F: x}
		if _, err := everyCodec.Append(nil, &v); err == nil || !strings.Contains(err.Error(), `every field "f"`) {
			t.Errorf("Append of F=%v: err %v, want one naming the field", x, err)
		}
	}
}

// TestForPanicsWithoutARule: a field kind the table has no rule for —
// the slice a Machine's ProcCounts is, among others — panics when the
// table is built, and the message names the field.
func TestForPanicsWithoutARule(t *testing.T) {
	type withSlice struct {
		CacheBlocks int
		ProcCounts  []int
	}
	type withNamed struct{ D json.Number }
	type withOption struct {
		N int `json:"n,string"`
	}
	type withUnexported struct{ n int }
	type withRaw struct{ R json.RawMessage }
	for name, build := range map[string]func(){
		"withSlice.ProcCounts": func() { For[withSlice]() },
		"withNamed.D":          func() { For[withNamed]() },
		"withOption.N":         func() { For[withOption]() },
		"withUnexported.n":     func() { For[withUnexported]() },
		"withRaw.R":            func() { For[withRaw]() },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, name) {
					t.Errorf("building the table of %s: panic %q, want one naming the field", name, msg)
				}
			}()
			build()
		}()
	}
}

// TestParseRefusesNonNumericStructs: Parse reads plain numbers only, so
// a struct with a string, bool, raw or omitempty field is refused with
// its first such field named, even on the bytes Append writes for it.
func TestParseRefusesNonNumericStructs(t *testing.T) {
	type withString struct {
		N int
		S string
	}
	type withBool struct{ B bool }
	type withRaw struct {
		R json.RawMessage `json:",omitempty"`
	}
	type withOmit struct {
		N int `json:",omitempty"`
	}
	for name, parse := range map[string]func() error{
		"withString.S": func() error { _, err := For[withString]().Parse([]byte(`{"N":1,"S":"x"}`)); return err },
		"withBool.B":   func() error { _, err := For[withBool]().Parse([]byte(`{"B":true}`)); return err },
		"withRaw.R":    func() error { _, err := For[withRaw]().Parse([]byte(`{"R":null}`)); return err },
		"withOmit.N":   func() error { _, err := For[withOmit]().Parse([]byte(`{"N":1}`)); return err },
	} {
		if err := parse(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Parse: err %v, want a refusal naming %s", err, name)
		}
	}
}

// TestParseIsStrict: Parse inverts Append on a numeric struct and
// refuses every other spelling of the same values.
func TestParseIsStrict(t *testing.T) {
	type numbers struct {
		N   int
		Tol float64 `json:"tol"`
	}
	c := For[numbers]()
	want := numbers{N: 7, Tol: 1e-9}
	enc, err := c.Append(nil, &want)
	if err != nil || string(enc) != `{"N":7,"tol":1e-9}` {
		t.Fatalf("Append = %s, %v", enc, err)
	}
	if got, err := c.Parse(enc); err != nil || got != want {
		t.Fatalf("Parse(%s) = %+v, %v; want %+v", enc, got, err, want)
	}
	for _, bad := range []string{``, `{}`, `{"N":7}`, `{"N":7,"tol":1e-09}`, `{"N":7,"tol":0.000000001}`,
		`{"N":7,"tol":1e-9} `, `{"N":07,"tol":1e-9}`, `{"tol":1e-9,"N":7}`, `{"N":7,"Tol":1e-9}`, `{"N":7,"tol":1e-9}}`} {
		if got, err := c.Parse([]byte(bad)); err == nil {
			t.Errorf("Parse accepted %s as %+v", bad, got)
		}
	}
}
