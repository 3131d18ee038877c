// Package repro is a from-scratch Go reproduction of Pugmire, Childs,
// Garth, Ahern and Weber, "Scalable Computation of Streamlines on Very
// Large Datasets" (SC 2009): four parallel streamline-computation
// algorithms — the paper's Static Allocation, Load On Demand and novel
// Hybrid Master/Slave scheme, plus a decentralized Work Stealing
// extension of its Section 8 outlook — running on a deterministic
// simulated cluster, together with the full evaluation campaign that
// regenerates every figure of the paper's Section 5 with a stealing
// block alongside the paper's three algorithms. Unsteady (time-varying)
// flow is a first-class workload: the same campaigns trace pathlines
// through time-sliced space-time blocks with the -unsteady flag, per
// the paper's Section 4 block-with-a-time-step model. Asynchronous
// predictive prefetching (-prefetch, internal/prefetch) overlaps block
// reads with computation in all four algorithms, hiding the blocking
// I/O the paper's Figure 6 measures while keeping geometry bit-identical.
// Staggered seed release (-inject, internal/seeds injection schedules)
// makes streak-line-style continuous injection a first-class workload:
// seeds released over time reshape load balance and I/O burstiness while
// every particle's geometry stays pinned by the same golden digests.
// The determinism contract itself is proved statically by
// internal/lint, checks that go test runs over every package of the
// module, flagging wall-clock reads, global rand, order-sensitive map
// iteration and host-time blocking in simulated code; reflect-driven
// tests hold every experiment axis and metrics counter wired.
//
// See README.md for a tour and DESIGN.md for the system inventory,
// substitutions, design-choice notes, the work-stealing scheme
// (DESIGN.md §6), the unsteady substrate (§7), the async-prefetch
// subsystem (§8), the injection-schedule subsystem (§9) and the
// invariant linter (§10). The entry points are:
//
//   - internal/core: the four algorithms (core.Run)
//   - internal/experiments: datasets, machine model, figure harness
//   - internal/lint: the determinism, documentation and size checks, run as tests
//   - cmd/slbench, cmd/slrun, cmd/slviz, cmd/slserve: command-line tools
//   - examples/: runnable walkthroughs (see examples/README.md)
package repro
