package experiments

import (
	"fmt"

	"repro/internal/faults"
)

// FaultMode selects the fault-injection scenario of a campaign cell
// (DESIGN.md §11). The zero value (and "off") runs fault-free, the
// paper's workload; "kill" loses the Scale.FaultProcs lowest-indexed
// processors at Scale.FaultTime — the worst-case victims, since
// processor 0 is both the hybrid algorithm's coordinator master and the
// work-stealing ring's initial token holder.
type FaultMode string

// The fault scenarios.
const (
	FaultsOff  FaultMode = ""     // no injected failures
	FaultsKill FaultMode = "kill" // kill the lowest FaultProcs ranks at FaultTime
)

// Enabled reports whether the mode injects any failures.
func (f FaultMode) Enabled() bool { return f.normalized() != FaultsOff }

// normalized maps the equivalent fault-free spellings ("" and "off") to
// the canonical zero value, so a cell cannot run or cache twice under
// two names.
func (f FaultMode) normalized() FaultMode {
	if f == "off" {
		return FaultsOff
	}
	return f
}

// Validate rejects unknown fault modes (the -faults flag surface).
func (f FaultMode) Validate() error {
	switch f.normalized() {
	case FaultsOff, FaultsKill:
		return nil
	}
	return fmt.Errorf("experiments: unknown fault mode %q (want off or kill)", string(f))
}

// faultPlan materializes a fault mode into the concrete kill schedule a
// cell at procs processors runs under: the sc.FaultProcs lowest ranks
// die at sc.FaultTime. At least one processor always survives — a plan
// that kills everyone is a validation error, not an experiment.
func (sc Scale) faultPlan(f FaultMode, procs int) faults.Plan {
	if !f.Enabled() {
		return faults.Plan{}
	}
	n := sc.FaultProcs
	if n < 1 {
		n = 1
	}
	if n >= procs {
		n = procs - 1
	}
	victims := make([]int, n)
	for i := range victims {
		victims[i] = i
	}
	return faults.KillAt(sc.FaultTime, victims...)
}
