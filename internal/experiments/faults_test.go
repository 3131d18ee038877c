package experiments

import (
	"strings"
	"testing"
)

func TestFaultModeAxis(t *testing.T) {
	// The two fault-free spellings are one cache identity.
	if FaultMode("off").normalized() != FaultsOff {
		t.Error(`"off" must normalize to the zero FaultMode`)
	}
	if FaultMode("off").Enabled() || FaultsOff.Enabled() {
		t.Error("fault-free modes must not report Enabled")
	}
	if !FaultsKill.Enabled() {
		t.Error("kill must report Enabled")
	}

	for _, m := range []FaultMode{FaultsOff, FaultsKill, "off"} {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", m, err)
		}
	}
	err := FaultMode("explode").Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown fault mode") {
		t.Errorf("Validate(explode) = %v, want unknown-mode error", err)
	}

	// The key axis renders and normalizes like every other axis.
	base := Key{Dataset: Astro, Seeding: Sparse, Alg: "ondemand", Procs: 8}
	killed := base
	killed.Faults = FaultsKill
	if l := killed.Label(); !strings.Contains(l, "+f:kill") {
		t.Errorf("Label() = %q, want a +f:kill suffix", l)
	}
	offSpelled := base
	offSpelled.Faults = "off"
	if offSpelled.normalized() != base.normalized() {
		t.Error(`Key{Faults:"off"} and the zero key must share one cache identity`)
	}
}

func TestFaultPlanMaterialization(t *testing.T) {
	sc := SmallScale()

	if p := sc.faultPlan(FaultsOff, 8); p.Enabled() {
		t.Errorf("fault-free plan = %v, want empty", p)
	}

	p := sc.faultPlan(FaultsKill, 8)
	if len(p.Events) != sc.FaultProcs {
		t.Fatalf("plan kills %d, want Scale.FaultProcs = %d", len(p.Events), sc.FaultProcs)
	}
	for i, e := range p.Events {
		if e.Proc != i || e.Time != sc.FaultTime {
			t.Errorf("event %d = %+v, want proc %d at t=%v", i, e, i, sc.FaultTime)
		}
	}
	if err := p.Validate(8); err != nil {
		t.Errorf("materialized plan invalid: %v", err)
	}

	// FaultProcs is clamped so at least one processor survives, and a
	// non-positive setting still kills one.
	wide := sc
	wide.FaultProcs = 99
	if got := len(wide.faultPlan(FaultsKill, 4).Events); got != 3 {
		t.Errorf("oversized FaultProcs killed %d of 4, want clamp to 3", got)
	}
	none := sc
	none.FaultProcs = 0
	if got := len(none.faultPlan(FaultsKill, 4).Events); got != 1 {
		t.Errorf("zero FaultProcs killed %d, want 1", got)
	}
}
