// Package experiments is the keyaxis clean corpus: every Key axis is
// rendered, enumerated and consumed.
package experiments

import "strconv"

// Key identifies one campaign cell.
type Key struct {
	Dataset string
	Procs   int
	Inject  bool
}

// Label renders every axis.
func (k Key) Label() string {
	return k.Dataset + "/" + strconv.Itoa(k.Procs) + "/inject=" + strconv.FormatBool(k.Inject)
}

// Campaign memoizes one int result per Key.
type Campaign struct {
	results map[Key]int
}

// datasetKeys enumerates every axis, Inject on both settings.
func (c *Campaign) datasetKeys(ds string, procs []int) []Key {
	var out []Key
	for _, p := range procs {
		out = append(out, Key{Dataset: ds, Procs: p, Inject: false})
		out = append(out, Key{Dataset: ds, Procs: p, Inject: true})
	}
	return out
}

// execute consumes every axis.
func (c *Campaign) execute(k Key) int {
	n := len(k.Dataset) * k.Procs
	if k.Inject {
		n++
	}
	return n
}

// CanonicalJSON encodes every axis.
func (k Key) CanonicalJSON() []byte {
	return []byte(k.Dataset + "|" + strconv.Itoa(k.Procs) + "|" + strconv.FormatBool(k.Inject))
}

// ParseKey decodes every axis.
func ParseKey(data []byte) Key {
	parts := make([]string, 3)
	copy(parts, splitPipe(string(data)))
	procs, _ := strconv.Atoi(parts[1])
	return Key{Dataset: parts[0], Procs: procs, Inject: parts[2] == "true"}
}

// splitPipe splits on '|' without importing strings.
func splitPipe(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '|' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}
