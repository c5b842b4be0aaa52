package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randIQ(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func TestFFTPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := NewFFTPlan(n); err == nil {
			t.Errorf("NewFFTPlan(%d) accepted a non-power-of-two", n)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 8, 64, 128} {
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randIQ(rng, n)
		got := p.Forward(x)
		for k := 0; k < n; k++ {
			var want complex128
			for i := 0; i < n; i++ {
				ang := -2 * math.Pi * float64(k) * float64(i) / float64(n)
				want += x[i] * cmplx.Exp(complex(0, ang))
			}
			if cmplx.Abs(got[k]-want) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want)
			}
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p, _ := NewFFTPlan(64)
	for trial := 0; trial < 50; trial++ {
		x := randIQ(rng, 64)
		back := p.Inverse(p.Forward(x))
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-10 {
				t.Fatalf("round-trip sample %d: %v vs %v", i, back[i], x[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, _ := NewFFTPlan(64)
	x := randIQ(rng, 64)
	X := p.Forward(x)
	// Σ|x|² = (1/N)Σ|X|²
	if d := math.Abs(Energy(x) - Energy(X)/64); d > 1e-8 {
		t.Fatalf("Parseval violated by %g", d)
	}
}

func TestFFTToneLandsInOneBin(t *testing.T) {
	p, _ := NewFFTPlan(64)
	for _, sub := range []int{0, 1, 5, 31, -1, -7, -32 + 64 - 64} {
		x := make([]complex128, 64)
		for n := range x {
			ang := 2 * math.Pi * float64(sub) * float64(n) / 64
			x[n] = cmplx.Exp(complex(0, ang))
		}
		X := p.Forward(x)
		bin := SubcarrierBin(sub, 64)
		if cmplx.Abs(X[bin]-complex(64, 0)) > 1e-8 {
			t.Fatalf("sub %d: bin %d = %v, want 64", sub, bin, X[bin])
		}
		for k := range X {
			if k != bin && cmplx.Abs(X[k]) > 1e-8 {
				t.Fatalf("sub %d: leakage at bin %d: %v", sub, k, X[k])
			}
		}
	}
}

func TestSubcarrierBinRoundTrip(t *testing.T) {
	for sub := -32; sub < 32; sub++ {
		b := SubcarrierBin(sub, 64)
		if b < 0 || b >= 64 {
			t.Fatalf("bin %d out of range for sub %d", b, sub)
		}
		if got := BinSubcarrier(b, 64); got != sub {
			t.Fatalf("round trip sub %d -> bin %d -> %d", sub, b, got)
		}
	}
}

func TestForwardIntoMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p, _ := NewFFTPlan(64)
	x := randIQ(rng, 64)
	dst := make([]complex128, 64)
	p.ForwardInto(dst, x)
	want := p.Forward(x)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("ForwardInto mismatch at %d", i)
		}
	}
	inv := make([]complex128, 64)
	p.InverseInto(inv, dst)
	for i := range inv {
		if cmplx.Abs(inv[i]-x[i]) > 1e-10 {
			t.Fatalf("InverseInto mismatch at %d", i)
		}
	}
}

func TestLowpassFIRPassesAndStops(t *testing.T) {
	const fs = 20e6
	f, err := LowpassFIR(1e6, fs, 129)
	if err != nil {
		t.Fatal(err)
	}
	// In-band tone (200 kHz) should pass with ~unity gain.
	in := Tone(4000, 200e3, fs, 0)
	out := f.Apply(in)
	gIn := MeanPower(out[500:3500]) / MeanPower(in[500:3500])
	if math.Abs(DB(gIn)) > 0.5 {
		t.Fatalf("in-band gain %.2f dB, want ~0", DB(gIn))
	}
	// Far out-of-band tone (5 MHz) should be strongly attenuated.
	in2 := Tone(4000, 5e6, fs, 0)
	out2 := f.Apply(in2)
	gOut := MeanPower(out2[500:3500]) / MeanPower(in2[500:3500])
	if DB(gOut) > -40 {
		t.Fatalf("stop-band gain %.2f dB, want < -40", DB(gOut))
	}
}

func TestLowpassFIRErrors(t *testing.T) {
	if _, err := LowpassFIR(0, 20e6, 31); err == nil {
		t.Error("accepted zero cutoff")
	}
	if _, err := LowpassFIR(11e6, 20e6, 31); err == nil {
		t.Error("accepted cutoff above Nyquist")
	}
	if _, err := LowpassFIR(1e6, 20e6, 2); err == nil {
		t.Error("accepted 2 taps")
	}
}

func TestFIRApplyIdentity(t *testing.T) {
	var f FIR // zero value: identity
	x := []complex128{1, 2i, 3, -4}
	out := f.Apply(x)
	for i := range x {
		if out[i] != x[i] {
			t.Fatalf("identity filter changed sample %d", i)
		}
	}
}

func TestGaussianPulseProperties(t *testing.T) {
	taps := GaussianPulse(0.5, 20, 3)
	if len(taps) != 61 {
		t.Fatalf("len = %d, want 61", len(taps))
	}
	var sum float64
	for i, v := range taps {
		sum += v
		if v < 0 {
			t.Fatalf("negative tap %d", i)
		}
		if taps[len(taps)-1-i] != v {
			t.Fatalf("pulse not symmetric at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("taps sum %g, want 1", sum)
	}
	// Peak at centre.
	for i, v := range taps {
		if v > taps[30] && i != 30 {
			t.Fatalf("peak not central")
		}
	}
}

func TestIntegrateDiscriminateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	omega := make([]float64, 500)
	for i := range omega {
		omega[i] = rng.Float64() - 0.5 // |ω| < π, no wrapping ambiguity
	}
	theta := IntegrateFrequency(omega, 0.3)
	iq := PhaseToIQ(theta, 1)
	back := Discriminate(iq)
	for i := 1; i < len(omega); i++ {
		if math.Abs(back[i]-omega[i]) > 1e-9 {
			t.Fatalf("sample %d: %g vs %g", i, back[i], omega[i])
		}
	}
}

func TestUnwrapRecoversRamp(t *testing.T) {
	n := 300
	true_ := make([]float64, n)
	wrapped := make([]float64, n)
	for i := range true_ {
		true_[i] = 0.4 * float64(i)
		wrapped[i] = WrapAngle(true_[i])
	}
	un := Unwrap(wrapped)
	for i := range un {
		if math.Abs(un[i]-true_[i]) > 1e-9 {
			t.Fatalf("unwrap sample %d: %g vs %g", i, un[i], true_[i])
		}
	}
}

func TestPhaseRMSEIgnoresConstantOffsetAndAmplitude(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randIQ(rng, 400)
	b := make([]complex128, len(a))
	rot := cmplx.Exp(complex(0, 1.234))
	for i := range a {
		b[i] = a[i] * rot * 3.7 // constant rotation and gain
	}
	if e := PhaseRMSE(a, b); e > 1e-9 {
		t.Fatalf("PhaseRMSE = %g, want ~0", e)
	}
}

func TestPhaseRMSEDetectsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := Tone(1000, 1e6, 20e6, 0)
	b := make([]complex128, len(a))
	for i := range a {
		b[i] = a[i] * cmplx.Exp(complex(0, 0.2*rng.NormFloat64()))
	}
	e := PhaseRMSE(a, b)
	if e < 0.1 || e > 0.3 {
		t.Fatalf("PhaseRMSE = %g, want ≈0.2", e)
	}
}

func TestDBConversions(t *testing.T) {
	if DB(100) != 20 {
		t.Fatalf("DB(100) = %g", DB(100))
	}
	if math.Abs(FromDB(3)-1.9952623) > 1e-6 {
		t.Fatalf("FromDB(3) = %g", FromDB(3))
	}
	if math.Abs(WattsToDBm(0.001)) > 1e-12 {
		t.Fatalf("WattsToDBm(1mW) = %g", WattsToDBm(0.001))
	}
	if math.Abs(DBmToWatts(30)-1) > 1e-12 {
		t.Fatalf("DBmToWatts(30) = %g", DBmToWatts(30))
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(WattsToDBm(0), -1) {
		t.Fatal("zero power should map to -inf")
	}
}

func TestMixShiftsTone(t *testing.T) {
	x := Tone(2048, 1e6, 20e6, 0)
	Mix(x, 2e6, 20e6)
	p, _ := NewFFTPlan(2048)
	X := p.Forward(x)
	// Expect energy at 3 MHz = bin 3e6/20e6*2048 = 307.2 -> near bin 307.
	peak, peakBin := 0.0, 0
	for k, v := range X {
		if cmplx.Abs(v) > peak {
			peak, peakBin = cmplx.Abs(v), k
		}
	}
	if peakBin < 305 || peakBin > 310 {
		t.Fatalf("peak at bin %d, want ≈307", peakBin)
	}
}

// TestRotationsMatchMix holds the mix-down table to Mix bit for bit:
// every factor comes from the one shared expression, at signed offsets
// (negative steps included, whose first phase is −0) and at lengths down
// to zero, with the table reused over shorter prefixes.
func TestRotationsMatchMix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(3000)
		if trial < 3 {
			n = trial
		}
		f := (2*rng.Float64() - 1) * 10e6
		x := randIQ(rng, n)
		if trial%7 == 0 {
			for i := range x {
				x[i] = complex(math.Copysign(0, rng.NormFloat64()), math.Copysign(0, rng.NormFloat64()))
			}
		}
		rot := Rotations(f, 20e6, n)
		if len(rot) != n {
			t.Fatalf("trial %d: %d factors, want %d", trial, len(rot), n)
		}
		for _, m := range []int{n, n / 2} {
			want := Mix(append([]complex128(nil), x[:m]...), f, 20e6)
			got := MixBy(append([]complex128(nil), x[:m]...), rot)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("trial %d (f=%g, n=%d, prefix %d) sample %d: MixBy %v, Mix %v", trial, f, n, m, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRMSEAndAdd(t *testing.T) {
	a := []complex128{1, 2, 3}
	b := []complex128{1, 2, 4}
	if got := RMSE(a, b); math.Abs(got-math.Sqrt(1.0/3)) > 1e-12 {
		t.Fatalf("RMSE = %g", got)
	}
	s := Add(a, b)
	if s[2] != 7 {
		t.Fatalf("Add = %v", s)
	}
	dst := []complex128{1, 1}
	AddInto(dst, []complex128{2, 3, 4})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("AddInto = %v", dst)
	}
}

func BenchmarkFFT64(b *testing.B) {
	p, _ := NewFFTPlan(64)
	x := randIQ(rand.New(rand.NewSource(1)), 64)
	dst := make([]complex128, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ForwardInto(dst, x)
	}
}
