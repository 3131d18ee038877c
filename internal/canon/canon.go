// Package canon owns the canonical byte format of the campaign cache:
// the bytes of a key, a cached summary and a served row (DESIGN.md
// §14). A flat struct is written as exactly the bytes encoding/json
// writes for it, and a numeric one is read back from those bytes and
// no others, so "same bytes, same computation" is the property of one
// encoder.
//
// A Codec is one field table, built from its struct type by For at
// package init. It honours json names and omitempty, and has a rule for
// int, int64, float64, bool, string and json.RawMessage fields. A
// RawMessage must be omitempty, and is spliced verbatim, so it must
// already be compact JSON. For panics, naming the field, on any other
// field, so a field without a rule fails at init rather than encoding
// bytes of its own.
package canon

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Codec is the field table of the struct type T.
type Codec[T any] struct {
	name   string  // T's name, for errors
	fields []field // in declaration order
	mixed  string  // the first field Parse has no rule for, or ""
}

// field is one field of a Codec's table.
type field struct {
	key       string // `,"name":`
	index     int
	omitEmpty bool
}

// For builds T's field table. It panics, naming the field, on an
// unexported, skipped or embedded field, a tag option other than
// omitempty, a RawMessage without it, or a field that is neither a
// RawMessage nor an int, int64, float64, bool or string of a type
// without methods.
func For[T any]() *Codec[T] {
	t := reflect.TypeFor[T]()
	c := &Codec[T]{name: t.Name()}
	for i := range t.NumField() {
		f := t.Field(i)
		name, opt, _ := strings.Cut(f.Tag.Get("json"), ",")
		k, raw := f.Type.Kind(), f.Type == reflect.TypeFor[json.RawMessage]()
		number := k == reflect.Int || k == reflect.Int64 || k == reflect.Float64
		if !f.IsExported() || name == "-" || (opt != "" && opt != "omitempty") || raw && opt == "" ||
			!raw && (!number && k != reflect.Bool && k != reflect.String || reflect.PointerTo(f.Type).NumMethod() > 0) {
			panic(fmt.Sprintf("canon: %s.%s (%s, tag %q) has no rule", t.Name(), f.Name, f.Type, f.Tag))
		}
		if c.mixed == "" && (!number || opt != "") {
			c.mixed = f.Name
		}
		c.fields = append(c.fields, field{"," + string(Quote(nil, cmp.Or(name, f.Name))) + ":", i, opt != ""})
	}
	return c
}

// Append appends the bytes json.Marshal writes for *p to b. The only
// error is a NaN or infinite float, which has no encoding.
func (c *Codec[T]) Append(b []byte, p *T) ([]byte, error) {
	v, sep := reflect.ValueOf(p).Elem(), 1 // the first field written drops its comma
	b = append(b, '{')
	for _, f := range c.fields {
		fv := v.Field(f.index)
		// What omitempty omits: a zero value, an empty slice and -0.
		if f.omitEmpty && (fv.IsZero() || fv.Kind() == reflect.Slice && fv.Len() == 0 || fv.Kind() == reflect.Float64 && fv.Float() == 0) {
			continue
		}
		var ok bool
		if b, ok = appendValue(append(b, f.key[sep:]...), fv); !ok {
			return nil, fmt.Errorf("canon: %s field %s has no encoding: %v", c.name, f.key[1:len(f.key)-1], fv.Float())
		}
		sep = 0
	}
	return append(b, '}'), nil
}

// Parse decodes the bytes Append writes for a struct of one or more
// int, int64 and float64 fields, and accepts nothing else: a missing,
// unknown, repeated or reordered field, whitespace, or a number spelled
// otherwise than Append spells it is an error, so decode∘encode is the
// identity on the bytes as well as the values. A field of another kind,
// or an omitempty one, makes every Parse an error.
func (c *Codec[T]) Parse(data []byte) (T, error) {
	var t T
	if c.mixed != "" {
		return t, fmt.Errorf("canon: Parse reads numbers only, and %s.%s is not a plain number", c.name, c.mixed)
	}
	v, rest, open := reflect.ValueOf(&t).Elem(), data, byte('{')
	var buf [32]byte // room for any one number's encoding
	for _, f := range c.fields {
		if len(rest) < len(f.key) || rest[0] != open || string(rest[1:len(f.key)]) != f.key[1:] {
			return *new(T), fmt.Errorf("canon: bad %s encoding: want %c%s at byte %d", c.name, open, f.key[1:], len(data)-len(rest))
		}
		rest, open = rest[len(f.key):], ','
		n := 0
		for n < len(rest) && rest[n] != ',' && rest[n] != '}' {
			n++
		}
		tok, fv := rest[:n], v.Field(f.index)
		rest = rest[n:]
		// A token that does not parse leaves a zero or clamped value, which
		// does not encode back to it, so the one comparison refuses it.
		if fv.Kind() == reflect.Float64 {
			x, _ := strconv.ParseFloat(string(tok), 64)
			fv.SetFloat(x)
		} else {
			x, _ := strconv.ParseInt(string(tok), 10, 64)
			fv.SetInt(x)
		}
		if enc, ok := appendValue(buf[:0], fv); !ok || !bytes.Equal(enc, tok) {
			return *new(T), fmt.Errorf("canon: bad %s encoding: %s%s is not canonical", c.name, f.key[1:], tok)
		}
	}
	if string(rest) != "}" || open == '{' {
		return *new(T), fmt.Errorf("canon: bad %s encoding: want } at byte %d", c.name, len(data)-len(rest))
	}
	return t, nil
}

// appendValue appends the field value v as encoding/json writes it. A
// float takes 'f' format, or 'e' with a one-digit negative exponent
// unpadded when its magnitude is below 1e-6 or at least 1e21; NaN and
// ±Inf have no encoding: ok is false.
func appendValue(b []byte, v reflect.Value) (_ []byte, ok bool) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10), true
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), true
	case reflect.String:
		return Quote(b, v.String()), true
	case reflect.Slice:
		return append(b, v.Bytes()...), true
	}
	x := v.Float()
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil, false
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && string(b[n-4:n-1]) == "e-0" {
		b = append(b[:n-2], b[n-1])
	}
	return b, true
}

// Quote appends s quoted as encoding/json quotes it. A string that needs
// no escape — every axis name, digest, source and label — is copied;
// any other goes through json.Marshal.
func Quote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
