package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite-impulse-response filter with real taps, applied to
// complex IQ streams. The zero value is an identity (no-op) filter.
type FIR struct {
	Taps []float64
}

// LowpassFIR designs a windowed-sinc (Hamming) lowpass filter with the
// given cutoff frequency in Hz at sampleRate, using numTaps coefficients
// (odd numbers give a symmetric, linear-phase filter with integer group
// delay). The DC gain is normalized to 1.
func LowpassFIR(cutoff, sampleRate float64, numTaps int) (*FIR, error) {
	if numTaps < 3 {
		return nil, fmt.Errorf("dsp: lowpass needs ≥ 3 taps, got %d", numTaps)
	}
	if cutoff <= 0 || cutoff >= sampleRate/2 {
		return nil, fmt.Errorf("dsp: cutoff %g Hz outside (0, %g)", cutoff, sampleRate/2)
	}
	fc := cutoff / sampleRate
	taps := make([]float64, numTaps)
	mid := float64(numTaps-1) / 2
	var sum float64
	for i := range taps {
		t := float64(i) - mid
		var s float64
		if t == 0 {
			s = 2 * fc
		} else {
			s = math.Sin(2*math.Pi*fc*t) / (math.Pi * t)
		}
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(numTaps-1)) // Hamming
		taps[i] = s * w
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return &FIR{Taps: taps}, nil
}

// GroupDelay returns the filter's group delay in samples for symmetric
// (linear-phase) designs.
func (f *FIR) GroupDelay() int { return (len(f.Taps) - 1) / 2 }

// Apply convolves x with the filter taps and returns a slice of the same
// length, delay-compensated so that output sample n aligns with input
// sample n (the GroupDelay leading samples of raw convolution output are
// dropped, and the tail is zero-padded).
func (f *FIR) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	f.ApplyInto(out, x)
	return out
}

// ApplyInto is Apply writing into a caller-provided buffer of the same
// length as x (which must not alias x) — the allocation-free variant for
// hot paths that reuse their buffers.
//
// Output n is Σ_k Taps[k]·x[n+d−k] over the taps whose input index is in
// range (d = GroupDelay), summed in tap order k = 0…len(Taps)−1 with
// separate real and imaginary accumulators. Interior outputs, whose
// windows need every tap, run in blocks with no per-tap range test: on
// amd64 CPUs with AVX sixteen at a time on a vector kernel (firVector),
// then four at a time in Go (firBlocked); the edge outputs go through
// firDot. Every path multiplies and adds each lane separately, rounding
// both, from +0 in the same tap order, so every output is the exact
// direct-form sum whichever path computed it.
func (f *FIR) ApplyInto(out, x []complex128) { f.applyInto(out, x, hasAVX) }

// applyInto is ApplyInto with the vector interior enabled by the caller;
// vector must be false on a CPU without AVX.
func (f *FIR) applyInto(out, x []complex128, vector bool) {
	if len(out) != len(x) {
		panic("dsp: ApplyInto length mismatch")
	}
	taps := f.Taps
	nt := len(taps)
	if nt == 0 {
		copy(out, x)
		return
	}
	d := f.GroupDelay()
	lo, hi := f.interior(len(x))
	for n := 0; n < lo; n++ {
		out[n] = firDot(taps, x, n+d)
	}
	n := lo
	if vector {
		n = firVector(out, x, taps, d, n, hi)
	}
	n = firBlocked(out, x, taps, d, n, hi)
	for ; n < len(out); n++ {
		out[n] = firDot(taps, x, n+d)
	}
}

// firVecBlock is the amd64 vector kernel's block: sixteen outputs, two
// complex outputs per YMM register across eight accumulators.
const firVecBlock = 16

// firVecChunk bounds the outputs of one vector kernel call. Assembly
// cannot be preempted asynchronously, so a long capture is filtered in
// chunks of 4,096 outputs (under 0.1 ms at 101 taps), between which the
// goroutine can stop for the GC or the scheduler.
const firVecChunk = 256 * firVecBlock

// interior returns the outputs [lo, hi) of ApplyInto over n samples
// whose windows need every tap: output i has i+d−(len(Taps)−1) ≥ 0 and
// i+d < n.
func (f *FIR) interior(n int) (lo, hi int) {
	d := f.GroupDelay()
	lo = min(len(f.Taps)-1-d, n)
	return lo, max(n-d, lo)
}

// firBlocked writes the interior outputs [lo, lo+4b) of ApplyInto, four
// at a time, for the largest b with lo+4b ≤ hi, and returns lo+4b. Every
// output in [lo, hi) must have its whole window in x.
func firBlocked(out, x []complex128, taps []float64, d, lo, hi int) int {
	nt := len(taps)
	n := lo
	for ; n+4 <= hi; n += 4 {
		// Output n+j reads x[n+j+d−k] = wj[nt−1−k] at tap k.
		w0 := x[n+d+1-nt : n+d+1]
		w1 := x[n+d+2-nt : n+d+2]
		w2 := x[n+d+3-nt : n+d+3]
		w3 := x[n+d+4-nt : n+d+4]
		var r0, i0, r1, i1, r2, i2, r3, i3 float64
		for k, t := range taps {
			j := nt - 1 - k
			r0 += t * real(w0[j])
			i0 += t * imag(w0[j])
			r1 += t * real(w1[j])
			i1 += t * imag(w1[j])
			r2 += t * real(w2[j])
			i2 += t * imag(w2[j])
			r3 += t * real(w3[j])
			i3 += t * imag(w3[j])
		}
		o := out[n : n+4]
		o[0] = complex(r0, i0)
		o[1] = complex(r1, i1)
		o[2] = complex(r2, i2)
		o[3] = complex(r3, i3)
	}
	return n
}

// firDot is one ApplyInto output: Σ taps[k]·x[m−k] over the taps with
// 0 ≤ m−k < len(x), in tap order.
func firDot(taps []float64, x []complex128, m int) complex128 {
	k0 := max(0, m-len(x)+1)
	k1 := min(len(taps), m+1)
	var re, im float64
	for k := k0; k < k1; k++ {
		v := x[m-k]
		re += taps[k] * real(v)
		im += taps[k] * imag(v)
	}
	return complex(re, im)
}

// GaussianPulse returns a unit-area Gaussian pulse for GFSK shaping with
// bandwidth-time product bt, bit duration of spb samples, truncated to
// spanBits bit periods (total length spanBits*spb+1, odd and symmetric).
//
// The pulse is the impulse response g(t) = (1/2T)·[Q(a·(t/T−1/2)) −
// Q(a·(t/T+1/2))]-equivalent Gaussian used by Bluetooth (BT=0.5), sampled
// and normalized so the taps sum to 1: convolving the NRZ frequency signal
// with it preserves total frequency deviation.
func GaussianPulse(bt float64, spb, spanBits int) []float64 {
	if spanBits < 1 {
		spanBits = 1
	}
	n := spanBits*spb + 1
	taps := make([]float64, n)
	mid := float64(n-1) / 2
	// Standard GFSK Gaussian: sigma (in bit periods) = sqrt(ln2)/(2π·BT).
	sigma := math.Sqrt(math.Ln2) / (2 * math.Pi * bt) * float64(spb)
	var sum float64
	for i := range taps {
		t := float64(i) - mid
		taps[i] = math.Exp(-t * t / (2 * sigma * sigma))
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return taps
}

// ConvolveReal convolves a real signal with real taps and returns the
// "same"-length, delay-compensated result (mirror of FIR.Apply for real
// signals; used on GFSK frequency trajectories).
func ConvolveReal(x, taps []float64) []float64 {
	out := make([]float64, len(x))
	ConvolveRealInto(out, x, taps)
	return out
}

// ConvolveRealInto is ConvolveReal writing into a caller-provided buffer
// of the same length as x (which must not alias x).
//
// Output n is Σ_k taps[k]·x[n+d−k] summed in tap order from +0, with
// d = (len(taps)−1)/2 and the input index clamped to [0, len(x)): the
// edge values are held, as the frequency signal is flat outside. Like
// FIR.ApplyInto, the interior outputs, whose windows need no clamp, run
// four at a time without the per-tap test; every output keeps its own
// accumulator and tap order, so it is bit-identical to the clamped form.
func ConvolveRealInto(out, x, taps []float64) {
	if len(out) != len(x) {
		panic("dsp: ConvolveRealInto length mismatch")
	}
	nt := len(taps)
	d := (nt - 1) / 2
	// Interior outputs n have n+d−(nt−1) ≥ 0 and n+d < len(x).
	lo := min(max(nt-1-d, 0), len(x))
	hi := max(len(x)-d, lo)
	for n := 0; n < lo; n++ {
		out[n] = convolveHeld(x, taps, n+d)
	}
	n := lo
	for ; n+4 <= hi; n += 4 {
		// Output n+i reads x[n+i+d−k] = w[i+nt−1−k] at tap k.
		w := x[n+d+1-nt : n+d+4]
		var a0, a1, a2, a3 float64
		for k, t := range taps {
			j := nt - 1 - k
			a0 += t * w[j]
			a1 += t * w[j+1]
			a2 += t * w[j+2]
			a3 += t * w[j+3]
		}
		out[n], out[n+1], out[n+2], out[n+3] = a0, a1, a2, a3
	}
	for ; n < len(out); n++ {
		out[n] = convolveHeld(x, taps, n+d)
	}
}

// convolveHeld is one output of ConvolveRealInto outside its blocked
// interior: Σ_k taps[k]·x[c−k] with the index clamped to x.
func convolveHeld(x, taps []float64, c int) float64 {
	var acc float64
	for k, t := range taps {
		acc += t * x[min(max(c-k, 0), len(x)-1)]
	}
	return acc
}
