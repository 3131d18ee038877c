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

	if p := sc.faultPlan(FaultsOff); p.Enabled() {
		t.Errorf("fault-free plan = %v, want empty", p)
	}

	// The kill scenario takes processor 0, the worst-case victim, at the
	// scale's kill time.
	p := sc.faultPlan(FaultsKill)
	if len(p.Events) != 1 || p.Events[0].Proc != 0 || p.Events[0].Time != sc.FaultTime {
		t.Fatalf("plan = %+v, want processor 0 at t=%v", p.Events, sc.FaultTime)
	}
	if err := p.Validate(2); err != nil {
		t.Errorf("materialized plan invalid at 2 processors: %v", err)
	}
}
