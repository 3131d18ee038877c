package experiments

import (
	"fmt"

	"repro/internal/faults"
)

// FaultMode selects the fault-injection scenario of a campaign cell
// (DESIGN.md §11). The zero value (and "off") runs fault-free, the
// paper's workload; "kill" loses processor 0 at Scale.FaultTime — the
// worst-case victim, since it is both the hybrid algorithm's coordinator
// master and the work-stealing ring's initial token holder.
type FaultMode string

// The fault scenarios.
const (
	FaultsOff  FaultMode = ""     // no injected failures
	FaultsKill FaultMode = "kill" // kill processor 0 at FaultTime
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
// cell runs under: processor 0 dies at sc.FaultTime. Key.Validate
// refuses a kill cell with no processor left to survive it.
func (sc Scale) faultPlan(f FaultMode) faults.Plan {
	if !f.Enabled() {
		return faults.Plan{}
	}
	return faults.KillAt(sc.FaultTime, 0)
}
