package field

import (
	"math"

	"repro/internal/vec"
)

// This file contains the time-varying variants of the three application
// datasets — the unsteady workload the paper's Section 8 names as future
// work ("time-varying flow"). Each variant wraps its steady stand-in and
// modulates the parameters that drive the dataset's computational
// character, so pathline campaigns stress the same block-access patterns
// the steady studies do, plus the time dimension:
//
//   - PulsingSupernova: the core's rotation and the shock expansion
//     trade strength periodically, so field lines alternate between
//     orbiting the core and sweeping outward across blocks.
//   - SawtoothTokamak: the winding ramps up and crashes each sawtooth
//     period (the classic tokamak sawtooth instability), so field lines
//     change their poloidal transit rate — and their ring of visited
//     blocks — over time.
//   - SwitchingThermal: the twin inlets alternate smoothly, moving the
//     jet-dominated region between two wall patches.

// FieldT is a time-varying vector field v(x, t) over a bounded domain
// and a bounded time interval. The embedded Field's Eval answers the
// field frozen at its initial time, so every FieldT is usable wherever a
// steady Field is.
//
// Implementations must be safe for concurrent use; all provided fields
// are pure functions of position and time.
type FieldT interface {
	Field
	// EvalAt returns the field value at position p and time t. Outside
	// TimeRange the result is implementation defined (the provided
	// fields extend periodically or clamp); callers are expected to
	// stay inside.
	EvalAt(p vec.V3, t float64) vec.V3
	// TimeRange returns the simulated interval [T0, T1] the field
	// covers — the span a time-sliced decomposition of it stores.
	TimeRange() (t0, t1 float64)
}

// PulsingSupernova is the unsteady astrophysics stand-in: a Supernova
// whose core rotation and shock expansion pulse in antiphase with the
// given period, as if the proto-neutron star were ringing.
type PulsingSupernova struct {
	Supernova
	// Period is the pulse period; PulseAmp the modulation depth in
	// [0, 1); Horizon the end of the covered time range [0, Horizon].
	Period   float64
	PulseAmp float64
	Horizon  float64
}

// DefaultPulsingSupernova returns the configuration used by the unsteady
// scaling studies: two full pulses over the time range.
func DefaultPulsingSupernova() PulsingSupernova {
	return PulsingSupernova{
		Supernova: DefaultSupernova(),
		Period:    1.5,
		PulseAmp:  0.6,
		Horizon:   3.0,
	}
}

// Name implements named.
func (s PulsingSupernova) Name() string { return "supernova-pulsing" }

// TimeRange implements FieldT.
func (s PulsingSupernova) TimeRange() (float64, float64) { return 0, s.Horizon }

// Eval implements Field, frozen at t = 0 (where the modulation is the
// steady configuration).
func (s PulsingSupernova) Eval(p vec.V3) vec.V3 { return s.EvalAt(p, 0) }

// EvalAt implements FieldT.
func (s PulsingSupernova) EvalAt(p vec.V3, t float64) vec.V3 {
	pulse := s.PulseAmp * math.Sin(2*math.Pi*t/s.Period)
	f := s.Supernova
	// Expansion surges while rotation weakens, and vice versa: the
	// dominant transport mechanism — and with it the set of blocks a
	// field line visits next — changes twice per period.
	f.ExpStrength *= 1 + pulse
	f.RotStrength *= 1 - 0.5*pulse
	return f.Eval(p)
}

// SawtoothTokamak is the unsteady fusion stand-in: a Tokamak whose
// winding (and island perturbation) ramp up over each sawtooth period
// and crash back, the NIMROD-style sawtooth cycle.
type SawtoothTokamak struct {
	Tokamak
	// Period is the sawtooth period; RampAmp the fractional growth of
	// the winding over one ramp; Horizon the end of the covered time
	// range [0, Horizon].
	Period  float64
	RampAmp float64
	Horizon float64
}

// DefaultSawtoothTokamak returns the configuration used by the unsteady
// scaling studies: three sawtooth crashes over the time range.
func DefaultSawtoothTokamak() SawtoothTokamak {
	return SawtoothTokamak{
		Tokamak: DefaultTokamak(),
		Period:  1.0,
		RampAmp: 0.8,
		Horizon: 3.0,
	}
}

// Name implements named.
func (t SawtoothTokamak) Name() string { return "tokamak-sawtooth" }

// TimeRange implements FieldT.
func (t SawtoothTokamak) TimeRange() (float64, float64) { return 0, t.Horizon }

// Eval implements Field, frozen at t = 0 (the start of a ramp, which is
// the steady configuration).
func (t SawtoothTokamak) Eval(p vec.V3) vec.V3 { return t.EvalAt(p, 0) }

// EvalAt implements FieldT.
func (t SawtoothTokamak) EvalAt(p vec.V3, tm float64) vec.V3 {
	// Sawtooth ramp: winding and island amplitude grow linearly through
	// each period, then crash instantly back — so the rings of blocks
	// that field lines wind through widen until each crash re-confines
	// them.
	phase := tm / t.Period
	ramp := phase - math.Floor(phase)
	f := t.Tokamak
	f.Q *= 1 + t.RampAmp*ramp
	f.ChaosAmp *= 1 + t.RampAmp*ramp
	return f.Eval(p)
}

// SwitchingThermal is the unsteady thermal-hydraulics stand-in: the twin
// inlet jets alternate smoothly with the given period (as if valves were
// cycling), moving the turbulent jet region between the two inlets while
// the recirculation and outlet flow persist.
type SwitchingThermal struct {
	ThermalHydraulics
	// Period is the full switching cycle (A strong → B strong → A
	// strong); Horizon the end of the covered time range [0, Horizon].
	Period  float64
	Horizon float64
}

// DefaultSwitchingThermal returns the configuration used by the unsteady
// scaling studies: two full switching cycles over the time range.
func DefaultSwitchingThermal() SwitchingThermal {
	return SwitchingThermal{
		ThermalHydraulics: DefaultThermalHydraulics(),
		Period:            1.5,
		Horizon:           3.0,
	}
}

// Name implements named.
func (t SwitchingThermal) Name() string { return "thermal-switching" }

// TimeRange implements FieldT.
func (t SwitchingThermal) TimeRange() (float64, float64) { return 0, t.Horizon }

// Eval implements Field, frozen at t = 0 (inlet A at full strength).
func (t SwitchingThermal) Eval(p vec.V3) vec.V3 { return t.EvalAt(p, 0) }

// EvalAt implements FieldT.
func (t SwitchingThermal) EvalAt(p vec.V3, tm float64) vec.V3 {
	// Inlet weights trade off smoothly and sum to 1, so the total
	// injected momentum is constant while its location migrates.
	wA := 0.5 * (1 + math.Cos(2*math.Pi*tm/t.Period))
	decay := t.jetDecay(p)
	jets := t.jet(p, t.InletA, decay).Scale(wA).Add(t.jet(p, t.InletB, decay).Scale(1 - wA))
	return jets.Add(t.ambient(p))
}
