// Package experiments is a keyaxis flagging corpus: the Inject axis
// was added to Key but never threaded through the contract functions —
// the missing-memo-axis bug class — nor declared curve-moving or not, and
// the problem memo is keyed by the wrong axes.
package experiments

import "strconv"

// Key identifies one campaign cell.
type Key struct { // want "Key\.Inject is never consumed by the execution path" "Key\.Inject is not declared in exactly one of keyContract\.curve and keyContract\.machine"
	Dataset string
	Procs   int
	Inject  bool
}

// Label renders the cell name — but forgets the Inject axis, so two
// different cells print identically.
func (k Key) Label() string { // want "Key\.Inject is not rendered by Label"
	return k.Dataset + "/" + strconv.Itoa(k.Procs)
}

// Campaign memoizes one int result per Key.
type Campaign struct {
	results map[Key]int
}

// datasetKeys enumerates the sweep — but never sets Inject, so no sweep
// can ever exercise the axis.
func (c *Campaign) datasetKeys(ds string, procs []int) []Key { // want "Key\.Inject is not set by datasetKeys"
	var out []Key
	for _, p := range procs {
		out = append(out, Key{Dataset: ds, Procs: p})
	}
	return out
}

// problem memoizes what is integrated — under the wrong identity: it
// ignores Dataset, so two datasets' streamlines alias one tape, and reads
// Procs, so one dataset's are integrated once per processor count.
func (c *Campaign) problem(k Key) int { // want "Key\.Dataset moves a curve but is not read by problem" "Key\.Procs moves no curve but is read by problem"
	return k.Procs
}

// execute runs one cell; it reads Dataset and Procs but ignores Inject,
// so the axis widens the cache identity without changing any run.
func (c *Campaign) execute(k Key) int {
	return len(k.Dataset) * c.problem(k)
}

// CanonicalJSON encodes the cache address — but forgets the Inject
// axis, so two different cells share one digest.
func (k Key) CanonicalJSON() []byte { // want "Key\.Inject is not encoded by CanonicalJSON"
	return []byte(k.Dataset + "|" + strconv.Itoa(k.Procs))
}

// ParseKey decodes a request — but never sets Inject, so the axis
// silently zeroes on every request arriving from the wire.
func ParseKey(data []byte) Key { // want "Key\.Inject is not decoded by ParseKey"
	return Key{Dataset: string(data), Procs: 1}
}
