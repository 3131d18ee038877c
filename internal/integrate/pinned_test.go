package integrate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/vec"
)

// TestAdvectPinned is the solver's own tier-1 pin, under the
// campaign-level goldens: one fixed seed through each of the six
// campaign fields, the whole outcome — every accepted point, the final
// time, the step and evaluation counts and the step size the solver is
// left with — reduced to a SHA-256. The digests were generated before
// the steady and non-autonomous steppers were merged, so any change to
// the stage arithmetic, the FSAL carry, the horizon clamp or the
// step-size controller moves one of them.
func TestAdvectPinned(t *testing.T) {
	// Two regimes per field: the default-scale campaign's options, where
	// the step cruises at HMax (nextStep's fast path, no rejections), and
	// an uncapped tight tolerance, where the controller grows, shrinks
	// and rejects.
	regimes := []Options{{Tol: 1e-5, HMax: 0.01}, {Tol: 1e-10}}
	tok := field.DefaultTokamak()
	steady := func(f field.Field) func(*DoPri5, vec.V3) AdvectResult {
		return func(s *DoPri5, p vec.V3) AdvectResult {
			return AdvectWith(s, f, p, 0, AdvectLimits{Bounds: f.Bounds(), MaxSteps: 500})
		}
	}
	// The unsteady runs start off t=0 and stop at a MaxTime inside the
	// fields' [0, 3] horizon, so the stage times and the landing clamp are
	// both in the digest.
	unsteady := func(f field.FieldT) func(*DoPri5, vec.V3) AdvectResult {
		return func(s *DoPri5, p vec.V3) AdvectResult {
			return AdvectTWith(s, f, p, 0.1, AdvectLimits{Bounds: f.Bounds(), MaxSteps: 500, MaxTime: 2.5})
		}
	}
	cases := []struct {
		name   string
		seed   vec.V3
		advect func(*DoPri5, vec.V3) AdvectResult
		want   [2]string
	}{
		{"supernova", vec.Of(0.3, 0.1, 0.05), steady(field.DefaultSupernova()), [2]string{
			"62e99340f6cb0089827775e0505c1607ad049acc3540eaae8666f5e57e654abd",
			"d02080edfe229ae32a8f29eb41935f0df53678119fb4c3f57151b60081d47b33",
		}},
		{"tokamak", vec.Of(tok.MajorRadius+0.1, 0, 0), steady(tok), [2]string{
			"69a5f570a9775d05928bc451d06240577fff647ba601d65b4f7a7e6c1f7591c8",
			"806e44c8fd94bbb5e21ca8bd7f15de926a24304706666ca55e3ec6cf100c8ea3",
		}},
		{"thermal", vec.Of(0.05, 0.43, 0.56), steady(field.DefaultThermalHydraulics()), [2]string{
			"ce5adda6851d5c44c64817a11e61e757252f7ed98b44d744022d0621a1f53f51",
			"df363c545ef59c31ace17071abdf4eef6db3410ce49fc6f68aa67ee924268d7d",
		}},
		{"supernova-pulsing", vec.Of(0.3, 0.1, 0.05), unsteady(field.DefaultPulsingSupernova()), [2]string{
			"44c515cb869a2ada8dfa5b6a9f6dab7bd6d265066eb4c0f907dbb95656b413fe",
			"8863730a1fb80ce6b10d69a94135d70812451290ea901cc177ebd5ee5068e712",
		}},
		{"tokamak-sawtooth", vec.Of(tok.MajorRadius+0.1, 0, 0), unsteady(field.DefaultSawtoothTokamak()), [2]string{
			"c1b56f3390fae22c9a856148932d8ff82c4320e6197086f350a988606e9a4b6c",
			"50b285711fc100891b995668a93811fd42f0ca9c8a3dc7d2a59e6dd693101852",
		}},
		{"thermal-switching", vec.Of(0.05, 0.43, 0.56), unsteady(field.DefaultSwitchingThermal()), [2]string{
			"44fe572f73798a784ad51f04f5ce5b4dc1660afa20ee490f592b9a3f74c073c9",
			"9d3e31a39322b465970649421876c4b128145994c88a2223863cb46dae51449e",
		}},
	}
	for _, tc := range cases {
		for i, opts := range regimes {
			s := NewDoPri5(opts)
			res := tc.advect(s, tc.seed)
			if res.Steps < 50 {
				t.Errorf("%s/%d: only %d steps (%v): the pin covers too little", tc.name, i, res.Steps, res.Reason)
			}
			h := sha256.New()
			word := func(v uint64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
			for _, p := range res.Points {
				word(math.Float64bits(p.X))
				word(math.Float64bits(p.Y))
				word(math.Float64bits(p.Z))
			}
			word(math.Float64bits(res.T))
			word(uint64(res.Steps))
			word(uint64(res.Evals))
			word(math.Float64bits(s.H))
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want[i] {
				t.Errorf("%s/%d: digest %s, want %s (%d steps, %d evals, T=%g, H=%g, %v)",
					tc.name, i, got, tc.want[i], res.Steps, res.Evals, res.T, s.H, res.Reason)
			}
		}
	}
}
