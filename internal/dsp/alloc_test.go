package dsp

import (
	"math"
	"testing"
)

// TestKernelsAllocFree holds the hot-path kernels to zero heap
// allocations per call on warm buffers — the contract the synthesis
// and rehearsal loops rely on. Each row runs one kernel, early returns
// and edge branches included; ApplyInto runs with the Go interior only,
// and with the AVX interior when the CPU has it.
func TestKernelsAllocFree(t *testing.T) {
	const n = 300
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(float64(i)), math.Sin(float64(i)))
	}
	out := make([]complex128, n)
	fir, err := LowpassFIR(500e3, 20e6, 101)
	if err != nil {
		t.Fatal(err)
	}
	var identity FIR
	short := x[:20] // shorter than the filter: no interior outputs
	d := fir.GroupDelay()
	lo, hi := fir.interior(n)

	re := make([]float64, n)
	for i := range re {
		re[i] = 3 * math.Sin(float64(i)) // unwraps both ways
	}
	reOut := make([]float64, n)
	pulse := GaussianPulse(0.5, 20, 3)

	plan, err := PlanFor(64)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := make([]complex128, 64), make([]complex128, 64)
	copy(src, x)

	var sinkF float64
	var sinkI int
	var sinkC complex128
	type allocCase struct {
		name string
		call func()
	}
	cases := []allocCase{
		{"FIR.ApplyInto", func() { fir.ApplyInto(out, x) }},
		{"FIR.applyInto/blocked", func() { fir.applyInto(out, x, false) }},
		{"FIR.applyInto/identity", func() { identity.applyInto(out, x, false) }},
		{"FIR.applyInto/short", func() { fir.applyInto(out[:len(short)], short, false) }},
		{"firBlocked", func() { sinkI = firBlocked(out, x, fir.Taps, d, lo, hi) }},
		{"firDot", func() { sinkC = firDot(fir.Taps, x, 0) }},
		{"ConvolveRealInto", func() { ConvolveRealInto(reOut, re, pulse) }},
		{"ConvolveRealInto/short", func() { ConvolveRealInto(reOut[:10], re[:10], pulse) }},
		{"convolveHeld", func() { sinkF = convolveHeld(re, pulse, 0) }},
		{"Unwrap", func() { copy(reOut, re); Unwrap(reOut) }},
		{"WrapAngle", func() { sinkF = WrapAngle(7) + WrapAngle(-7) + WrapAngle(math.Pi) }},
		{"PhaseToIQInto", func() { PhaseToIQInto(out, re, 2) }},
		{"IntegrateFrequencyInto", func() { IntegrateFrequencyInto(reOut, re, 1) }},
		{"FFTPlan.ForwardInto", func() { plan.ForwardInto(dst, src) }},
		{"FFTPlan.InverseInto", func() { plan.InverseInto(dst, src) }},
		{"FFTPlan.transform", func() { plan.transform(dst, src, plan.fwd) }},
		{"FFTPlan.check", func() { plan.check(dst) }},
		{"SubcarrierBin", func() { sinkI = SubcarrierBin(-3, 64) + SubcarrierBin(3, 64) }},
		{"BinSubcarrier", func() { sinkI = BinSubcarrier(61, 64) + BinSubcarrier(3, 64) }},
	}
	if hasAVX {
		cases = append(cases,
			allocCase{"FIR.applyInto/vector", func() { fir.applyInto(out, x, true) }},
			allocCase{"firVector", func() { sinkI = firVector(out, x, fir.Taps, d, lo, hi) }},
		)
	}
	for _, c := range cases {
		if a := testing.AllocsPerRun(10, c.call); a != 0 {
			t.Errorf("%s: %v allocs/call, want 0", c.name, a)
		}
	}
	_, _, _ = sinkF, sinkI, sinkC
}
