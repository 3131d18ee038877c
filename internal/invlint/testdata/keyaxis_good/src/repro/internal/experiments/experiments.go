// Package experiments is the keyaxis clean corpus: every Key axis is
// rendered, enumerated, consumed and declared curve-moving or not, and
// the problem memo is keyed by the curve-moving axes alone.
package experiments

import "strconv"

// Key identifies one campaign cell.
type Key struct {
	Dataset   string
	Procs     int
	Injection bool
}

// Label renders every axis.
func (k Key) Label() string {
	return k.Dataset + "/" + strconv.Itoa(k.Procs) + "/inject=" + strconv.FormatBool(k.Injection)
}

// Campaign memoizes one int result per Key.
type Campaign struct {
	results map[Key]int
}

// datasetKeys enumerates every axis, Injection on both settings.
func (c *Campaign) datasetKeys(ds string, procs []int) []Key {
	var out []Key
	for _, p := range procs {
		out = append(out, Key{Dataset: ds, Procs: p, Injection: false})
		out = append(out, Key{Dataset: ds, Procs: p, Injection: true})
	}
	return out
}

// problem memoizes what is integrated: it reads the one axis that moves a
// curve and neither of the two that only move the machine.
func (c *Campaign) problem(k Key) int {
	return len(k.Dataset)
}

// execute consumes every axis.
func (c *Campaign) execute(k Key) int {
	n := c.problem(k) * k.Procs
	if k.Injection {
		n++
	}
	return n
}

// CanonicalJSON encodes every axis.
func (k Key) CanonicalJSON() []byte {
	return []byte(k.Dataset + "|" + strconv.Itoa(k.Procs) + "|" + strconv.FormatBool(k.Injection))
}

// ParseKey decodes every axis.
func ParseKey(data []byte) Key {
	parts := make([]string, 3)
	copy(parts, splitPipe(string(data)))
	procs, _ := strconv.Atoi(parts[1])
	return Key{Dataset: parts[0], Procs: procs, Injection: parts[2] == "true"}
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
