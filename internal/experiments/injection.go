package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/seeds"
)

// Injection names a seed-release schedule for a campaign cell
// (seeds.Schedule, DESIGN.md §9). The paper's evaluation releases every
// seed at t0; the other schedules model streak-line-style continuous
// injection, bursty in-situ seeding and rate-limited emitters, reshaping
// when work exists — and therefore the load balance — without touching
// any particle's geometry.
type Injection string

// Injection schedules available to campaigns and the -inject flag.
const (
	// InjectT0 releases all seeds at time zero — the paper's fixed
	// population and the zero value ("t0" and "off" normalize to it).
	InjectT0 Injection = ""
	// InjectStagger spreads releases uniformly over the scale's
	// injection window (a continuous streak-line rake).
	InjectStagger Injection = "stagger"
	// InjectBurst releases Scale.InjectWaves equal waves across the
	// window (bursty in-situ seeding, one rake every few timesteps).
	InjectBurst Injection = "burst"
	// InjectRate releases seeds at Scale.InjectRate seeds per virtual
	// second, clamping overflow to the window end.
	InjectRate Injection = "rate"
)

// Enabled reports whether the injection differs from release-all-at-t0.
func (inj Injection) Enabled() bool {
	return inj != InjectT0 && inj != "t0" && inj != "off"
}

// Validate reports a descriptive error for unknown injection names.
func (inj Injection) Validate() error {
	switch inj {
	case InjectT0, "t0", "off", InjectStagger, InjectBurst, InjectRate:
		return nil
	default:
		return fmt.Errorf("experiments: unknown injection schedule %q (valid: off, stagger, burst, rate)", inj)
	}
}

// normalized maps the equivalent all-at-t0 spellings ("", "t0", "off")
// to one canonical value so a cell cannot run or cache twice.
func (inj Injection) normalized() Injection {
	if !inj.Enabled() {
		return InjectT0
	}
	return inj
}

// injectionSchedule materializes an Injection as the seeds.Schedule it
// names at this scale: releases start at virtual time zero and spread
// over the scale's InjectWindow.
func (sc Scale) injectionSchedule(inj Injection) (seeds.Schedule, error) {
	if err := inj.Validate(); err != nil {
		return nil, err
	}
	switch inj.normalized() {
	case InjectStagger:
		return seeds.UniformStagger(0, sc.InjectWindow), nil
	case InjectBurst:
		return seeds.BurstWaves(0, sc.InjectWindow, sc.InjectWaves), nil
	case InjectRate:
		return seeds.RateLimit(0, sc.InjectWindow, sc.InjectRate), nil
	default:
		return seeds.AllAtT0(0), nil
	}
}

// applyInjection assigns the problem's per-seed release times from the
// schedule inj names at this scale, validating the schedule invariants
// (count conservation, monotonicity, window containment). It writes
// prob.Release and nothing else, so a campaign cell applies it to its own
// copy of a shared problem. An all-at-t0 injection leaves the problem
// untouched (nil Release) and allocates nothing, so the canonical cells
// run exactly the code they always ran.
func applyInjection(prob *core.Problem, inj Injection, sc Scale) error {
	if !inj.Enabled() {
		return nil
	}
	sched, err := sc.injectionSchedule(inj)
	if err != nil {
		return err
	}
	times := sched.Times(len(prob.Seeds))
	t0, t1 := sched.Window()
	if err := seeds.ValidateTimes(times, len(prob.Seeds), t0, t1); err != nil {
		return err
	}
	prob.Release = times
	return nil
}

// BuildInjectedProblem assembles the steady or unsteady problem for a
// dataset and seeding with the named injection schedule applied — the
// one-call form of BuildProblem/BuildUnsteadyProblem + applyInjection
// that campaign cells and the sl* commands share.
func BuildInjectedProblem(ds Dataset, seeding Seeding, sc Scale, unsteady bool, inj Injection) (core.Problem, error) {
	var prob core.Problem
	var err error
	if unsteady {
		prob, err = BuildUnsteadyProblem(ds, seeding, sc, sc.TimeSlices)
	} else {
		prob, err = BuildProblem(ds, seeding, sc)
	}
	if err != nil {
		return core.Problem{}, err
	}
	if err := applyInjection(&prob, inj, sc); err != nil {
		return core.Problem{}, err
	}
	return prob, nil
}
