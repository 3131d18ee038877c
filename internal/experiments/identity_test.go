package experiments

import (
	"bytes"
	"maps"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
)

// keyCurveAxes declares, for every Key field, whether it moves a
// streamline's curve (true) or only the machine simulating it (false).
// Campaign.problem — whose memo entry holds the segment tape — must key
// on exactly the first kind: a curve axis it ignores aliases two
// problems onto one tape, and a machine axis it reads integrates the same
// lines once per value. A field missing here fails TestKeyFieldIdentity.
var keyCurveAxes = map[string]bool{
	"Dataset":   true,
	"Seeding":   true,
	"Unsteady":  true,
	"Alg":       false,
	"Procs":     false,
	"Prefetch":  false,
	"Injection": false,
	"Faults":    false,
}

// keyAlternatives holds one value per Key field type that differs from
// identityBase's: a new field of an existing type needs no entry here.
var keyAlternatives = map[reflect.Type]any{
	reflect.TypeFor[Dataset]():         Fusion,
	reflect.TypeFor[Seeding]():         Dense,
	reflect.TypeFor[core.Algorithm]():  core.HybridMS,
	reflect.TypeFor[int]():             8,
	reflect.TypeFor[bool]():            true,
	reflect.TypeFor[prefetch.Policy](): prefetch.Neighbor,
	reflect.TypeFor[Injection]():       InjectBurst,
	reflect.TypeFor[FaultMode]():       FaultsKill,
}

// identityBase is the cell every TestKeyFieldIdentity pair starts from:
// a tinyScale cell that runs, whose every single-field neighbour runs
// too.
var identityBase = Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4}

// TestKeyFieldIdentity holds every Key field to the cell's identity
// contract. For each field it builds two valid keys that differ only in
// that field and checks the bugs an unwired axis causes, directly:
//
//  1. Label renders them apart (two cells never print alike).
//  2. datasetKeys enumerates the field: every value of the sweep for
//     Dataset, Seeding, Alg and Procs, the template's for the others.
//  3. They run to different summary bytes (no axis only widens the cache
//     identity).
//  4. CanonicalJSON and Digest encode them apart, and ParseKey decodes
//     each back to itself (no two cells share a cache address, no axis
//     zeroes on the wire).
//  5. Campaign.problem builds a second entry exactly when the field is
//     declared curve-moving in keyCurveAxes (the tape identity).
func TestKeyFieldIdentity(t *testing.T) {
	sc := tinyScale()
	c := NewCampaign(sc)
	baseOut := c.Run(identityBase)
	if baseOut.Err != nil {
		t.Fatalf("%s: %v", identityBase.Label(), baseOut.Err)
	}
	baseSum, err := baseOut.Summary.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	swept := map[string]map[any]bool{
		"Dataset": valueSet(datasets()),
		"Seeding": valueSet(seedings()),
		"Alg":     valueSet(core.Algorithms()),
		"Procs":   valueSet(sc.ProcCounts),
	}
	kt := reflect.TypeFor[Key]()
	for i := range kt.NumField() {
		f := kt.Field(i)
		t.Run(f.Name, func(t *testing.T) {
			curve, declared := keyCurveAxes[f.Name]
			if !declared {
				t.Fatalf("Key.%s is not declared in keyCurveAxes: say whether it moves a curve", f.Name)
			}
			alt, ok := keyAlternatives[f.Type]
			if !ok {
				t.Fatalf("no alternative value for %s", f.Type)
			}
			k := identityBase
			field := reflect.ValueOf(&k).Elem().Field(i)
			if field.Interface() == alt {
				t.Fatalf("keyAlternatives[%s] is identityBase's %s", f.Type, f.Name)
			}
			field.Set(reflect.ValueOf(alt))
			if err := k.Validate(); err != nil {
				t.Fatalf("%+v: %v", k, err)
			}

			if identityBase.Label() == k.Label() {
				t.Errorf("Label renders %s and %s alike: Key.%s is not rendered", identityBase.Label(), k.Label(), f.Name)
			}

			tc := NewCampaign(sc)
			tc.Cell = k
			got := map[any]bool{}
			for _, e := range tc.allKeys() {
				got[reflect.ValueOf(e).Field(i).Interface()] = true
			}
			want, ok := swept[f.Name]
			if !ok {
				want = map[any]bool{alt: true}
			}
			if !maps.Equal(got, want) {
				t.Errorf("datasetKeys under template %s emits %s values %v, want %v", k.Label(), f.Name, got, want)
			}

			before := c.numProblems()
			out := c.Run(k)
			switch grew := c.numProblems() > before; {
			case curve && !grew:
				t.Errorf("Key.%s moves a curve but Campaign.problem keys one entry across it: two problems would share one segment tape", f.Name)
			case !curve && grew:
				t.Errorf("Key.%s moves no curve but Campaign.problem builds an entry per value: identical lines would be integrated once per %s", f.Name, f.Name)
			}
			if out.Err != nil {
				t.Fatalf("%s: %v", k.Label(), out.Err)
			}
			sum, err := out.Summary.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(sum, baseSum) {
				t.Errorf("%s and %s run to the same summary: Key.%s never reaches the execution path", identityBase.Label(), k.Label(), f.Name)
			}

			if bytes.Equal(identityBase.CanonicalJSON(), k.CanonicalJSON()) || identityBase.Digest() == k.Digest() {
				t.Errorf("%s and %s share the cache address %s: Key.%s is not encoded", identityBase.Label(), k.Label(), k.CanonicalJSON(), f.Name)
			}
			for _, key := range []Key{identityBase, k} {
				if back, err := ParseKey(key.CanonicalJSON()); err != nil || back != key {
					t.Errorf("ParseKey(%s) = %+v, %v; want %+v", key.CanonicalJSON(), back, err, key)
				}
			}
		})
	}
}

// scaleProbes names, for each Scale field identityBase's run does not
// read, a probe cell whose run does; every other field is probed with
// identityBase.
var scaleProbes = map[string]Key{
	"FusionSeeds":       {Dataset: Fusion, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4},
	"ThermalSparseGrid": {Dataset: Thermal, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4},
	"ThermalDenseSeeds": {Dataset: Thermal, Seeding: Dense, Alg: core.LoadOnDemand, Procs: 4},
	"ShortSteps":        {Dataset: Thermal, Seeding: Dense, Alg: core.LoadOnDemand, Procs: 4},
	"TimeSlices":        {Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4, Unsteady: true},
	"PrefetchDepth":     {Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4, Prefetch: prefetch.Neighbor},
	"InjectWindow":      {Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4, Injection: InjectStagger},
	"InjectRate":        {Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4, Injection: InjectRate},
	"FaultTime":         {Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4, Faults: FaultsKill},
}

// TestScaleFieldIdentity holds every Scale field to the scale name's
// contract: a scale is one machine, and each of its fields reaches a
// cell. A Scale is its Name, its Curves and its Machine, and the type
// says which field is which: Curves.problem cannot read a Machine field.
// So the test walks each half, perturbs each field of tinyScale, and
// compares what the two scales build for the field's probe cell — no
// cell runs:
//
//  1. A Curves field must change the problem Campaign.problem memoizes.
//  2. A Machine field must change KeyMachineConfig or the release
//     schedule applyInjection writes.
//  3. The Name changes neither: it labels the scale.
//
// A field that fails is in the wrong half, or dead: nothing a cell runs
// reads it.
func TestScaleFieldIdentity(t *testing.T) {
	base := tinyScale()
	st := reflect.TypeFor[Scale]()
	for i := range st.NumField() {
		if f := st.Field(i); f.Name != "Name" && !f.Anonymous {
			t.Errorf("Scale.%s is in neither half: put it in Curves if it moves a curve, in Machine if not", f.Name)
		}
	}
	for name := range scaleProbes {
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("scaleProbes names %s, which Scale does not have", name)
		}
	}
	// builds is what sc builds for k's cell: the memoized problem, the
	// machine configuration and the release schedule the cell writes.
	builds := func(t *testing.T, k Key, sc Scale) (core.Problem, core.Config, []float64) {
		t.Helper()
		e := NewCampaign(sc).problem(k)
		if e.err != nil {
			t.Fatalf("%s: %v", k.Label(), e.err)
		}
		prob := e.prob
		if err := applyInjection(&prob, k.Injection, sc.Machine); err != nil {
			t.Fatal(err)
		}
		return e.prob, KeyMachineConfig(k, sc), prob.Release
	}
	t.Run("Name", func(t *testing.T) {
		sc := base
		sc.Name += "2"
		p0, m0, r0 := builds(t, identityBase, base)
		p1, m1, r1 := builds(t, identityBase, sc)
		if !reflect.DeepEqual(p0, p1) || !reflect.DeepEqual(m0, m1) || !reflect.DeepEqual(r0, r1) {
			t.Errorf("Scale.Name reaches %s: a scale's name must only label it", identityBase.Label())
		}
	})
	curves := reflect.TypeFor[Curves]()
	for _, half := range []reflect.Type{curves, reflect.TypeFor[Machine]()} {
		for _, f := range reflect.VisibleFields(half) {
			t.Run(f.Name, func(t *testing.T) {
				k, ok := scaleProbes[f.Name]
				if !ok {
					k = identityBase
				}
				sc := base
				field := reflect.ValueOf(&sc).Elem().FieldByName(f.Name)
				alt := perturbed(field)
				if reflect.DeepEqual(field.Interface(), alt.Interface()) {
					t.Fatalf("cannot perturb Scale.%s = %v", f.Name, field.Interface())
				}
				field.Set(alt)
				p0, m0, r0 := builds(t, k, base)
				p1, m1, r1 := builds(t, k, sc)
				switch {
				case half == curves && reflect.DeepEqual(p0, p1):
					t.Errorf("Curves.%s moves no curve: %s builds the same problem under either value; move it to Machine, or delete it", f.Name, k.Label())
				case half != curves && reflect.DeepEqual(m0, m1) && reflect.DeepEqual(r0, r1):
					t.Errorf("Machine.%s is dead: %s builds the same machine and release schedule under either value", f.Name, k.Label())
				}
			})
		}
	}
}

// perturbed returns a value of v's type that differs from it: numbers
// doubled, and every element of a slice.
func perturbed(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Int:
		out.SetInt(2 * v.Int())
	case reflect.Float64:
		out.SetFloat(2 * v.Float())
	case reflect.Slice:
		out.Set(reflect.MakeSlice(v.Type(), v.Len(), v.Len()))
		for i := range v.Len() {
			out.Index(i).Set(perturbed(v.Index(i)))
		}
	default:
		return v
	}
	return out
}

// numProblems counts the campaign's problem memo entries.
func (c *Campaign) numProblems() int {
	c.probMu.Lock()
	defer c.probMu.Unlock()
	return len(c.problems)
}

// valueSet collects xs into a set of interface values.
func valueSet[T comparable](xs []T) map[any]bool {
	set := make(map[any]bool, len(xs))
	for _, x := range xs {
		set[x] = true
	}
	return set
}
