package experiments

import (
	"errors"
	"flag"
	"fmt"

	"repro/internal/prefetch"
)

// AxisFlags registers on fs the seven flags that set a cell's machine
// axes — -unsteady, -tslices, -prefetch, -prefetch-depth, -inject,
// -inject-waves and -faults — the one definition cmd/slrun and
// cmd/slbench share. It returns the check to call after fs.Parse, which
// rejects unknown axis names and every override flag that is out of
// range or would be silently ignored, writes the overrides into sc, and
// returns the normalized Key carrying the four machine axes (Dataset,
// Seeding, Alg and Procs left zero). shapes admits -tslices and
// -prefetch-depth without -unsteady and -prefetch: the slbench -shapes
// checks run unsteady and prefetching cells of their own.
func AxisFlags(fs *flag.FlagSet) func(sc *Scale, shapes bool) (Key, error) {
	unsteady := fs.Bool("unsteady", false, "trace pathlines through the dataset's time-varying field (DESIGN.md §7)")
	tslices := fs.Int("tslices", 0, "with -unsteady: stored time slices (0 = scale default)")
	policy := fs.String("prefetch", "off", "predictive block prefetching: off, neighbor, temporal, or both (DESIGN.md §8)")
	depth := fs.Int("prefetch-depth", 0, "with -prefetch: lookahead per predictor (0 = scale default)")
	inject := fs.String("inject", "off", "seed-release schedule: off (all at t0), stagger, burst, or rate (DESIGN.md §9)")
	waves := fs.Int("inject-waves", 0, "with -inject burst: release waves across the injection window (0 = scale default)")
	faults := fs.String("faults", "off", "processor-loss scenario: off or kill (DESIGN.md §11)")
	return func(sc *Scale, shapes bool) (Key, error) {
		k := Key{Unsteady: *unsteady, Prefetch: prefetch.Policy(*policy), Injection: Injection(*inject), Faults: FaultMode(*faults)}
		if err := errors.Join(k.Prefetch.Validate(), k.Injection.Validate(), k.Faults.Validate()); err != nil {
			return Key{}, err
		}
		switch {
		case *tslices != 0 && !k.Unsteady && !shapes:
			return Key{}, errors.New("-tslices requires -unsteady")
		case *tslices != 0 && *tslices < 2:
			return Key{}, fmt.Errorf("need at least 2 time slices, got %d", *tslices)
		case *depth != 0 && !k.Prefetch.Enabled() && !shapes:
			return Key{}, errors.New("-prefetch-depth requires -prefetch")
		case *depth < 0:
			return Key{}, fmt.Errorf("negative -prefetch-depth %d", *depth)
		case *waves != 0 && k.Injection != InjectBurst:
			return Key{}, errors.New("-inject-waves requires -inject burst")
		case *waves < 0:
			return Key{}, fmt.Errorf("need at least 1 injection wave, got %d", *waves)
		}
		if *tslices != 0 {
			sc.TimeSlices = *tslices
		}
		if *depth != 0 {
			sc.PrefetchDepth = *depth
		}
		if *waves != 0 {
			sc.InjectWaves = *waves
		}
		return k.normalized(), nil
	}
}
