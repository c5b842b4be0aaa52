package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceApply is the direct-form FIR that ApplyInto must reproduce
// bit for bit: one complex accumulator per output, every tap tested
// against the input bounds, summed in tap order.
func referenceApply(f *FIR, out, x []complex128) {
	d := f.GroupDelay()
	for n := range out {
		var acc complex128
		for k, t := range f.Taps {
			idx := n + d - k
			if idx < 0 || idx >= len(x) {
				continue
			}
			acc += complex(t, 0) * x[idx]
		}
		out[n] = acc
	}
}

// dm1FrameLen is the data-field length, in 20 Msps samples, of a
// predicted DM1 waveform — the input size the synthesis filters see.
const dm1FrameLen = 9000

// firUnderTest lists the filters the pipeline runs: the 600 kHz
// synthesis filter, the receiver's 500 kHz channel filter and its
// 900 kHz wideband filter, plus odd and even tap counts down to the
// shortest design, and hand-built one- and two-tap filters below it.
func firUnderTest(t testing.TB) map[string]*FIR {
	t.Helper()
	designs := []struct {
		name   string
		cutoff float64
		taps   int
	}{
		{"synthesis-600k-101", 600e3, 101},
		{"btrx-500k-101", 500e3, 101},
		{"btrx-wide-900k-81", 900e3, 81},
		{"odd-3", 1e6, 3},
		{"even-4", 1e6, 4},
		{"odd-7", 2e6, 7},
		{"even-20", 2e6, 20},
		{"even-100", 600e3, 100},
	}
	out := map[string]*FIR{
		"one-tap": {Taps: []float64{0.75}},
		"two-tap": {Taps: []float64{0.25, -1.5}},
	}
	for _, d := range designs {
		f, err := LowpassFIR(d.cutoff, 20e6, d.taps)
		if err != nil {
			t.Fatal(err)
		}
		out[d.name] = f
	}
	return out
}

// firInterior is one of ApplyInto's interior kernels: it writes the
// outputs [lo, m) for whole blocks of block outputs and returns m.
type firInterior struct {
	name  string
	block int
	run   func(out, x []complex128, taps []float64, d, lo, hi int) int
}

// firInteriors lists the interior kernels this CPU can run: the Go
// blocked loop always, the AVX kernel when the CPU has it.
func firInteriors(t testing.TB) []firInterior {
	ks := []firInterior{{"blocked", 4, firBlocked}}
	if hasAVX {
		ks = append(ks, firInterior{"vector", firVecBlock, firVector})
	} else {
		t.Log("CPU without AVX: the vector kernel is not exercised")
	}
	return ks
}

// sentinel marks output slots a kernel must leave alone.
var sentinel = complex(-7.25, 3.5)

func TestApplyIntoMatchesDirectForm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	kernels := firInteriors(t)
	// Interior sizes on each side of the 4- and 16-output blocks and of
	// the vector kernel's chunk.
	interiors := []int{0, 1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 47, firVecChunk - 1, firVecChunk, firVecChunk + 17}
	for name, f := range firUnderTest(t) {
		nt := len(f.Taps)
		lens := []int{0, 1, nt - 1, 2*nt + 5}
		for _, m := range interiors {
			lens = append(lens, nt-1+m)
		}
		for r := 0; r < 4; r++ {
			lens = append(lens, dm1FrameLen+r, dm1FrameLen-4+r)
		}
		for _, n := range lens {
			// Odd offsets: x and out start 1 and 3 samples into their
			// backing arrays, off any 32-byte alignment.
			x := randIQ(rng, n+1)[1:]
			if n > 2 {
				x[n/2] = 0 // exact zeros take the signed-zero path
			}
			want := make([]complex128, n)
			referenceApply(f, want, x)
			got := make([]complex128, n+3)[3:]
			f.ApplyInto(got, x)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s len %d: out[%d] = %v, direct form %v", name, n, i, got[i], want[i])
				}
			}
			lo, hi := f.interior(n)
			for _, k := range kernels {
				buf := make([]complex128, n+3)
				for i := range buf {
					buf[i] = sentinel
				}
				out := buf[3:]
				m := k.run(out, x, f.Taps, f.GroupDelay(), lo, hi)
				if m < lo || m > hi || hi-m >= k.block {
					t.Fatalf("%s len %d: %s kernel over [%d, %d) stopped at %d", name, n, k.name, lo, hi, m)
				}
				for i, v := range buf {
					j := i - 3
					switch {
					case j >= lo && j < m:
						if !sameBits(v, want[j]) {
							t.Fatalf("%s len %d: %s out[%d] = %v, direct form %v", name, n, k.name, j, v, want[j])
						}
					case v != sentinel:
						t.Fatalf("%s len %d: %s wrote out[%d] outside [%d, %d)", name, n, k.name, j, lo, m)
					}
				}
			}
		}
	}
}

// specialFloats are the IEEE edge values both interior kernels must
// handle alike: signed zeros, subnormals, infinities, NaN and values
// whose products or sums overflow.
var specialFloats = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64 / 3, 1e300, -1e300,
	1, -0.5,
}

// sameKernelBits is sameBits except that any NaN matches any NaN. When
// two NaNs meet in a multiply or an add, x86 returns the first operand's
// payload, and which operand comes first in the Go loops is the
// register allocator's choice, accumulator by accumulator; every other
// result is fixed by IEEE 754 rounding.
func sameKernelBits(a, b complex128) bool {
	same := func(p, q float64) bool {
		return math.Float64bits(p) == math.Float64bits(q) || (math.IsNaN(p) && math.IsNaN(q))
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

// checkKernelsAgree runs every interior kernel over x's interior and
// fails unless each matches the Go blocked loop on the outputs both
// wrote.
func checkKernelsAgree(t *testing.T, name string, kernels []firInterior, taps []float64, x []complex128) {
	t.Helper()
	f := &FIR{Taps: taps}
	lo, hi := f.interior(len(x))
	ref := make([]complex128, len(x))
	mRef := firBlocked(ref, x, taps, f.GroupDelay(), lo, hi)
	for _, k := range kernels[1:] {
		out := make([]complex128, len(x))
		m := min(k.run(out, x, taps, f.GroupDelay(), lo, hi), mRef)
		for i := lo; i < m; i++ {
			if !sameKernelBits(out[i], ref[i]) {
				t.Fatalf("%s len %d: %s out[%d] = %v, blocked %v", name, len(x), k.name, i, out[i], ref[i])
			}
		}
	}
}

func TestFIRKernelsAgreeOnSpecialValues(t *testing.T) {
	kernels := firInteriors(t)
	rng := rand.New(rand.NewSource(20))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64()
		}
		return specialFloats[rng.Intn(len(specialFloats))]
	}
	filters := firUnderTest(t)
	filters["special"] = &FIR{Taps: []float64{0.5, math.SmallestNonzeroFloat64, -2, math.MaxFloat64 / 4, math.Copysign(0, -1), 1e-310, 3}}
	for name, f := range filters {
		for _, n := range []int{len(f.Taps) - 1 + 16, len(f.Taps) - 1 + 37, 600} {
			for r := 0; r < 8; r++ {
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(pick(), pick())
				}
				checkKernelsAgree(t, name, kernels, f.Taps, x)
			}
		}
	}
}

// floatBytes packs float64s little-endian, the layout FuzzFIRKernels
// decodes.
func floatBytes(v ...float64) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func decodeFloats(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// FuzzFIRKernels feeds arbitrary taps and samples (float64 bits,
// little-endian, samples as re/im pairs) to every interior kernel: the
// kernels must agree with each other, and on finite inputs ApplyInto
// must equal the direct form bit for bit.
func FuzzFIRKernels(f *testing.F) {
	ramp := make([]float64, 2*48)
	for i := range ramp {
		ramp[i] = float64(i%7) - 3
	}
	f.Add(floatBytes(0.25, 0.5, 0.25), floatBytes(ramp...))
	f.Add(floatBytes(1), floatBytes(ramp[:34]...))
	f.Add(floatBytes(-1, 2, -3, 4), floatBytes(specialFloats...))
	mixed := append(append([]float64{}, specialFloats...), ramp...)
	f.Add(floatBytes(0.5, math.SmallestNonzeroFloat64, math.MaxFloat64, -0.0), floatBytes(mixed...))
	f.Add(floatBytes(math.Inf(1), 1, math.NaN()), floatBytes(ramp...))
	f.Add(floatBytes(1e-320, -1e-320, 1e308, -1e308, 2, 3, 5), floatBytes(append(mixed, mixed...)...))
	kernels := firInteriors(f)
	f.Fuzz(func(t *testing.T, tapBytes, xBytes []byte) {
		taps := decodeFloats(tapBytes)
		v := decodeFloats(xBytes)
		if len(taps) == 0 || len(taps) > 256 || len(v) > 1<<14 {
			return
		}
		x := make([]complex128, len(v)/2)
		finite := true
		for i := range x {
			x[i] = complex(v[2*i], v[2*i+1])
			finite = finite && !math.IsInf(v[2*i], 0) && !math.IsNaN(v[2*i]) && !math.IsInf(v[2*i+1], 0) && !math.IsNaN(v[2*i+1])
		}
		for _, tp := range taps {
			finite = finite && !math.IsInf(tp, 0) && !math.IsNaN(tp)
		}
		checkKernelsAgree(t, fmt.Sprintf("%d taps", len(taps)), kernels, taps, x)
		if !finite {
			return // the direct form's complex multiply makes 0·∞ = NaN
		}
		fir := &FIR{Taps: taps}
		got := make([]complex128, len(x))
		want := make([]complex128, len(x))
		fir.ApplyInto(got, x)
		referenceApply(fir, want, x)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("out[%d] = %v, direct form %v", i, got[i], want[i])
			}
		}
	})
}

// sameBits compares the float64 bits of both parts. It is stricter than
// ==, which treats ±0 as equal: complex(t,0)·x computes t·re − 0·im, which
// can differ from t·re only in the sign of an exact zero, and an
// accumulator that starts at +0 absorbs either sign, so the sums agree to
// the bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// BenchmarkFIRApply runs the 101-tap synthesis filter over a DM1-frame
// input: ApplyInto with the AVX interior (when the CPU has it) and with
// the Go blocked interior only, beside the direct-form reference.
func BenchmarkFIRApply(b *testing.B) {
	f := firUnderTest(b)["synthesis-600k-101"]
	x := randIQ(rand.New(rand.NewSource(1)), dm1FrameLen)
	out := make([]complex128, len(x))
	type impl struct {
		name  string
		apply func(out, x []complex128)
	}
	impls := []impl{
		{"blocked", func(out, x []complex128) { f.applyInto(out, x, false) }},
		{"reference", func(out, x []complex128) { referenceApply(f, out, x) }},
	}
	if hasAVX {
		impls = append([]impl{{"vector", func(out, x []complex128) { f.applyInto(out, x, true) }}}, impls...)
	}
	for _, impl := range impls {
		b.Run(fmt.Sprintf("%s/taps=%d/n=%d", impl.name, len(f.Taps), len(x)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.apply(out, x)
			}
		})
	}
}

// referenceConvolveReal is the clamped form ConvolveRealInto must
// reproduce bit for bit: every tap's input index clamped to x, summed in
// tap order.
func referenceConvolveReal(out, x, taps []float64) {
	d := (len(taps) - 1) / 2
	for n := range out {
		var acc float64
		for k, t := range taps {
			idx := min(max(n+d-k, 0), len(x)-1)
			acc += t * x[idx]
		}
		out[n] = acc
	}
}

func TestConvolveRealMatchesClampedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	filters := map[string][]float64{
		"gfsk-br-61":  GaussianPulse(0.5, 20, 3),
		"gfsk-ble-61": GaussianPulse(0.5, 20, 3)[1:], // even count
		"none":        nil,
		"one-tap":     {0.75},
		"two-tap":     {0.25, -1.5},
		"odd-5":       {0.1, -0.2, 0.4, -0.2, 0.1},
	}
	for name, taps := range filters {
		nt := len(taps)
		// Inputs shorter than the taps, on each side of the interior's
		// first output, and GFSK-frame long.
		lens := []int{0, 1, 2, nt / 2, nt - 1, nt, nt + 1, 2*nt + 3, 7300}
		for _, n := range lens {
			if n < 0 {
				continue
			}
			x := make([]float64, n+1)[1:] // off the backing array's start
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			if n > 2 {
				x[n/2] = math.Copysign(0, -1)
			}
			want := make([]float64, n)
			referenceConvolveReal(want, x, taps)
			got := ConvolveReal(x, taps)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s len %d: out[%d] = %v, clamped form %v", name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkConvolveReal runs the GFSK Gaussian filter over a DM1-length
// frequency trajectory, beside the clamped reference.
func BenchmarkConvolveReal(b *testing.B) {
	taps := GaussianPulse(0.5, 20, 3)
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, dm1FrameLen)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	out := make([]float64, len(x))
	for _, impl := range []struct {
		name string
		run  func(out, x, taps []float64)
	}{{"split", ConvolveRealInto}, {"reference", referenceConvolveReal}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.run(out, x, taps)
			}
		})
	}
}
