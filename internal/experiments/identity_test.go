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
		"Seeding": valueSet(Seedings()),
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
