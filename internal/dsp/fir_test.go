package dsp

import (
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

func TestApplyIntoMatchesDirectForm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for name, f := range firUnderTest(t) {
		nt := len(f.Taps)
		lens := []int{0, 1, nt - 1, nt, nt + 1, nt + 2, nt + 3, nt + 4, 2*nt + 5}
		for r := 0; r < 4; r++ {
			lens = append(lens, dm1FrameLen+r, dm1FrameLen-4+r)
		}
		for _, n := range lens {
			x := randIQ(rng, n)
			if n > 2 {
				x[n/2] = 0 // exact zeros take the signed-zero path
			}
			got := make([]complex128, n)
			want := make([]complex128, n)
			f.ApplyInto(got, x)
			referenceApply(f, want, x)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s len %d: out[%d] = %v, direct form %v", name, n, i, got[i], want[i])
				}
			}
		}
	}
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
// input, the blocked kernel beside the direct-form reference.
func BenchmarkFIRApply(b *testing.B) {
	f := firUnderTest(b)["synthesis-600k-101"]
	x := randIQ(rand.New(rand.NewSource(1)), dm1FrameLen)
	out := make([]complex128, len(x))
	for _, impl := range []struct {
		name  string
		apply func(out, x []complex128)
	}{
		{"blocked", f.ApplyInto},
		{"reference", func(out, x []complex128) { referenceApply(f, out, x) }},
	} {
		b.Run(fmt.Sprintf("%s/taps=%d/n=%d", impl.name, len(f.Taps), len(x)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.apply(out, x)
			}
		})
	}
}
