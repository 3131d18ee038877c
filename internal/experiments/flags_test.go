package experiments

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/prefetch"
)

// TestAxisFlags pins the one axis flag set both commands parse: unknown
// axis names are rejected, and accepted flags yield the normalized Key.
func TestAxisFlags(t *testing.T) {
	cases := []struct {
		args string
		bad  bool
		want Key
	}{
		{args: "-prefetch sideways", bad: true},
		{args: "-inject sideways", bad: true},
		{args: "-faults sideways", bad: true},

		{args: ""},
		{args: "-prefetch off -inject t0 -faults off"},
		{args: "-inject off"},
		{args: "-unsteady", want: Key{Unsteady: true}},
		{args: "-prefetch both", want: Key{Prefetch: prefetch.Both}},
		{args: "-inject burst", want: Key{Injection: injectBurst}},
		{args: "-inject rate -faults kill", want: Key{Injection: injectRate, Faults: faultsKill}},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("axes", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		check := AxisFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: parse: %v", tc.args, err)
		}
		k, err := check()
		if tc.bad {
			if err == nil {
				t.Errorf("%q accepted as %+v", tc.args, k)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q rejected: %v", tc.args, err)
			continue
		}
		if k != tc.want {
			t.Errorf("%q: key %+v, want %+v", tc.args, k, tc.want)
		}
	}
}
