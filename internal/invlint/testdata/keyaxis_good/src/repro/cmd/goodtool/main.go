// Command goodtool wires every Key axis: the literal sets the required
// axes and the optional one is set by assignment in the same function —
// the conditional-axis idiom the analyzer sanctions.
package main

import "repro/internal/experiments"

func main() {
	k := experiments.Key{Dataset: "astro", Procs: 8}
	k.Injection = true
	_ = k.Label()
}
