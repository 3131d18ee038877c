package experiments

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/prefetch"
)

// TestAxisFlags pins the one axis flag set both commands parse: every
// combination either command rejected before it existed is still
// rejected, accepted flags yield the normalized Key and exactly the
// Scale overrides they name, and the -shapes exemption admits -tslices
// and -prefetch-depth and nothing else.
func TestAxisFlags(t *testing.T) {
	cases := []struct {
		args   string
		shapes bool
		bad    bool
		want   Key
		scale  func(*Scale) // the overrides the flags write
	}{
		{args: "-tslices 4", bad: true},
		{args: "-unsteady -tslices 1", bad: true},
		{args: "-prefetch-depth 3", bad: true},
		{args: "-prefetch neighbor -prefetch-depth -2", bad: true},
		{args: "-prefetch sideways", bad: true},
		{args: "-inject sideways", bad: true},
		{args: "-faults sideways", bad: true},
		{args: "-inject-waves 4", bad: true},
		{args: "-inject stagger -inject-waves 4", bad: true},
		{args: "-inject burst -inject-waves -1", bad: true},
		{args: "-shapes -tslices 1", shapes: true, bad: true},
		{args: "-shapes -prefetch-depth -1", shapes: true, bad: true},
		{args: "-shapes -inject-waves 4", shapes: true, bad: true},
		{args: "-shapes -prefetch sideways", shapes: true, bad: true},

		{args: ""},
		{args: "-prefetch off -inject t0 -faults off"},
		{args: "-inject off"},
		{args: "-unsteady", want: Key{Unsteady: true}},
		{args: "-unsteady -tslices 5", want: Key{Unsteady: true}, scale: func(sc *Scale) { sc.TimeSlices = 5 }},
		{args: "-prefetch both -prefetch-depth 3", want: Key{Prefetch: prefetch.Both},
			scale: func(sc *Scale) { sc.PrefetchDepth = 3 }},
		{args: "-inject burst -inject-waves 3", want: Key{Injection: InjectBurst},
			scale: func(sc *Scale) { sc.InjectWaves = 3 }},
		{args: "-inject rate -faults kill", want: Key{Injection: InjectRate, Faults: FaultsKill}},
		{args: "-shapes -tslices 9 -prefetch-depth 3", shapes: true,
			scale: func(sc *Scale) { sc.TimeSlices, sc.PrefetchDepth = 9, 3 }},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("axes", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Bool("shapes", false, "")
		check := AxisFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: parse: %v", tc.args, err)
		}
		sc := SmallScale()
		k, err := check(&sc, tc.shapes)
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
		want := SmallScale()
		if tc.scale != nil {
			tc.scale(&want)
		}
		if !reflect.DeepEqual(sc, want) {
			t.Errorf("%q: scale %+v, want %+v", tc.args, sc, want)
		}
	}
}
