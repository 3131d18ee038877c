package experiments

import (
	"errors"
	"flag"

	"repro/internal/prefetch"
)

// AxisFlags registers on fs the four flags that set a cell's machine
// axes — -unsteady, -prefetch, -inject and -faults — the one definition
// cmd/slrun and cmd/slbench share. It returns the check to call after
// fs.Parse, which rejects unknown axis names and returns the normalized
// Key carrying the four axes (Dataset, Seeding, Alg and Procs left
// zero). What each axis means at a scale — its time slices, prefetch
// depth, burst waves and kill time — is the Scale's alone: a Key and a
// scale name are a cell's whole identity.
func AxisFlags(fs *flag.FlagSet) func() (Key, error) {
	unsteady := fs.Bool("unsteady", false, "trace pathlines through the dataset's time-varying field (DESIGN.md §7)")
	policy := fs.String("prefetch", "off", "predictive block prefetching: off, neighbor, temporal, or both (DESIGN.md §8)")
	inject := fs.String("inject", "off", "seed-release schedule: off (all at t0), stagger, burst, or rate (DESIGN.md §9)")
	faults := fs.String("faults", "off", "processor-loss scenario: off or kill (DESIGN.md §11)")
	return func() (Key, error) {
		k := Key{Unsteady: *unsteady, Prefetch: prefetch.Policy(*policy), Injection: Injection(*inject), Faults: FaultMode(*faults)}
		if err := errors.Join(k.Prefetch.Validate(), k.Injection.Validate(), k.Faults.Validate()); err != nil {
			return Key{}, err
		}
		return k.normalized(), nil
	}
}
