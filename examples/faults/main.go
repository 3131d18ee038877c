// Fault injection: kill a processor mid-run and watch each algorithm
// recover — or refuse, honestly (DESIGN.md §11).
//
//	go run ./examples/faults
//
// The paper's target machine loses nodes routinely, but its evaluation
// is fault-free. A faults.Plan schedules deterministic fail-stop kills
// at exact virtual times; the dynamic algorithms detect the death,
// adopt the victim's streamlines (restarting them from their seeds),
// and still finish every particle with geometry bit-identical to the
// fault-free run. Static allocation cannot — its block ownership and
// resident results die with the processor — so it fails with a typed
// *faults.UnrecoverableError instead of a wrong answer. The same
// scenario runs campaign-wide via `slrun -faults kill` and
// `slbench -faults kill`.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	sc := experiments.SmallScale()
	procs := sc.ProcCounts[0]

	prob, err := experiments.BuildProblem(experiments.Astro, experiments.Sparse, sc)
	if err != nil {
		return err
	}

	// 1. The fault-free reference: wall clock (to place the kill
	// mid-run) and the geometry digest every recovery must reproduce.
	refCfg := experiments.MachineConfig(core.LoadOnDemand, procs, sc)
	refCfg.CollectTraces = true
	refRes, err := core.Run(prob, refCfg)
	if err != nil {
		return err
	}
	reference := trace.CanonicalDigest(refRes.Streamlines)
	killAt := 0.3 * refRes.Summary.WallClock
	fmt.Fprintf(w, "astro sparse, %d seeds on %d processors; fault-free wall clock %.3f s\n",
		len(prob.Seeds), procs, refRes.Summary.WallClock)
	fmt.Fprintf(w, "killing processor 0 at t=%.3f s — the hybrid coordinator AND the\n", killAt)
	fmt.Fprintf(w, "stealing ring's initial token holder, the worst-case victim\n\n")

	// 2. The recoverable three: every seed completes, geometry lands on
	// the fault-free digest bit for bit, and the recovery counters show
	// how each algorithm got there.
	fmt.Fprintf(w, "%-9s %9s %7s %9s %9s %10s %9s\n",
		"alg", "wall(s)", "done", "adopted", "reforms", "failovers", "geometry")
	for _, alg := range []core.Algorithm{core.LoadOnDemand, core.WorkStealing, core.HybridMS} {
		cfg := experiments.MachineConfig(alg, procs, sc)
		cfg.CollectTraces = true
		cfg.Faults = faults.KillAt(killAt, 0)
		res, err := core.Run(prob, cfg)
		if err != nil {
			return fmt.Errorf("%s under faults: %w", alg, err)
		}
		s := res.Summary
		geom := "IDENTICAL"
		if trace.CanonicalDigest(res.Streamlines) != reference {
			geom = "DIVERGED"
		}
		fmt.Fprintf(w, "%-9s %9.3f %4d/%-3d %9d %9d %10d %9s\n",
			alg, s.WallClock, s.StreamlinesCompleted, len(prob.Seeds),
			s.SeedsAdopted, s.RingReforms, s.MasterFailovers, geom)
		if geom != "IDENTICAL" {
			return fmt.Errorf("%s: recovery changed geometry", alg)
		}
		if s.ProcsLost != 1 {
			return fmt.Errorf("%s: expected exactly one lost processor, got %d", alg, s.ProcsLost)
		}
	}

	// 3. Static allocation: the typed refusal. The victim's pinned
	// blocks and resident geometry are unrecoverable, and the error
	// names the loss rather than letting the campaign read a partial
	// result as a finished one.
	cfg := experiments.MachineConfig(core.StaticAlloc, procs, sc)
	cfg.Faults = faults.KillAt(killAt, 0)
	_, err = core.Run(prob, cfg)
	var ue *faults.UnrecoverableError
	if !errors.As(err, &ue) {
		return fmt.Errorf("static under faults returned %v, want *faults.UnrecoverableError", err)
	}
	fmt.Fprintf(w, "\nstatic    refuses, typed: %v\n", ue)

	// 4. Escalation: kill three of eight processors in two waves. The
	// survivors re-adopt work each time — including work already
	// adopted once from an earlier victim.
	fmt.Fprintf(w, "\nmulti-kill (procs 0,1 at t=%.3f, proc 2 at t=%.3f):\n", killAt, 2*killAt)
	for _, alg := range []core.Algorithm{core.LoadOnDemand, core.WorkStealing, core.HybridMS} {
		cfg := experiments.MachineConfig(alg, procs, sc)
		cfg.CollectTraces = true
		cfg.Faults = faults.Plan{Events: []faults.Event{
			{Proc: 0, Time: killAt},
			{Proc: 1, Time: killAt},
			{Proc: 2, Time: 2 * killAt},
		}}
		res, err := core.Run(prob, cfg)
		if err != nil {
			return fmt.Errorf("%s under multi-kill: %w", alg, err)
		}
		s := res.Summary
		geom := "IDENTICAL"
		if trace.CanonicalDigest(res.Streamlines) != reference {
			geom = "DIVERGED"
		}
		fmt.Fprintf(w, "  %-9s lost=%d adopted=%d done=%d/%d geometry %s\n",
			alg, s.ProcsLost, s.SeedsAdopted, s.StreamlinesCompleted, len(prob.Seeds), geom)
		if geom != "IDENTICAL" || s.StreamlinesCompleted != int64(len(prob.Seeds)) {
			return fmt.Errorf("%s: multi-kill recovery incomplete", alg)
		}
	}
	fmt.Fprintln(w, "\nevery recovery bit-identical to the fault-free geometry —")
	fmt.Fprintln(w, "adopted streamlines restart from their seeds through the same")
	fmt.Fprintln(w, "deterministic integrator, so failure can reshape time, never results")
	return nil
}
