package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/seeds"
)

// Injection names a seed-release schedule for a campaign cell
// (package seeds, DESIGN.md §9). The paper's evaluation releases every
// seed at t0; the other schedules model streak-line-style continuous
// injection, bursty in-situ seeding and rate-limited emitters, reshaping
// when work exists — and therefore the load balance — without touching
// any particle's geometry.
type Injection string

// Injection schedules available to campaigns and the -inject flag.
const (
	// injectT0 releases all seeds at time zero — the paper's fixed
	// population and the zero value ("t0" and "off" normalize to it).
	injectT0 Injection = ""
	// injectStagger spreads releases uniformly over the scale's
	// injection window (a continuous streak-line rake).
	injectStagger Injection = "stagger"
	// injectBurst releases burstWaves equal waves across the window
	// (bursty in-situ seeding, one rake every few timesteps).
	injectBurst Injection = "burst"
	// injectRate releases seeds at Scale.InjectRate seeds per virtual
	// second, clamping overflow to the window end.
	injectRate Injection = "rate"
)

// burstWaves is the wave count of the burst schedule at every scale.
const burstWaves = 4

// Enabled reports whether the injection differs from release-all-at-t0.
func (inj Injection) Enabled() bool {
	return inj != injectT0 && inj != "t0" && inj != "off"
}

// Validate reports a descriptive error for unknown injection names.
func (inj Injection) Validate() error {
	switch inj {
	case injectT0, "t0", "off", injectStagger, injectBurst, injectRate:
		return nil
	default:
		return fmt.Errorf("experiments: unknown injection schedule %q (valid: off, stagger, burst, rate)", inj)
	}
}

// normalized maps the equivalent all-at-t0 spellings ("", "t0", "off")
// to one canonical value so a cell cannot run or cache twice.
func (inj Injection) normalized() Injection {
	if !inj.Enabled() {
		return injectT0
	}
	return inj
}

// applyInjection assigns the problem's per-seed release times from the
// schedule inj names on machine m — releases start at virtual time zero
// and spread over the machine's InjectWindow — validating the schedule
// invariants (count conservation, monotonicity, window containment). It
// writes prob.Release and nothing else, so a campaign cell applies it to
// its own copy of a shared problem. An all-at-t0 injection leaves the
// problem untouched (nil Release) and allocates nothing, so the
// canonical cells run exactly the code they always ran.
func applyInjection(prob *core.Problem, inj Injection, m Machine) error {
	if !inj.Enabled() {
		return nil
	}
	if err := inj.Validate(); err != nil {
		return err
	}
	n := len(prob.Seeds)
	var times []float64
	switch inj {
	case injectStagger:
		times = seeds.Stagger(n, 0, m.InjectWindow)
	case injectBurst:
		times = seeds.Bursts(n, 0, m.InjectWindow, burstWaves)
	case injectRate:
		times = seeds.Rate(n, 0, m.InjectWindow, m.InjectRate)
	}
	if err := seeds.ValidateTimes(times, n, 0, max(0, m.InjectWindow)); err != nil {
		return err
	}
	prob.Release = times
	return nil
}

// BuildInjectedProblem assembles the steady or unsteady problem for a
// dataset and seeding with the named injection schedule applied — the
// one-call form of Curves.problem + applyInjection that the sl* commands
// share.
func BuildInjectedProblem(ds Dataset, seeding Seeding, sc Scale, unsteady bool, inj Injection) (core.Problem, error) {
	prob, err := sc.Curves.problem(ds, seeding, unsteady)
	if err != nil {
		return core.Problem{}, err
	}
	if err := applyInjection(&prob, inj, sc.Machine); err != nil {
		return core.Problem{}, err
	}
	return prob, nil
}
