package dsp

import (
	"math"
	"math/cmplx"
)

// Phase extracts the wrapped instantaneous phase of an IQ buffer, in
// radians within (-π, π].
func Phase(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = cmplx.Phase(v)
	}
	return out
}

// Unwrap removes 2π discontinuities from a wrapped phase sequence in place
// and returns it.
func Unwrap(ph []float64) []float64 {
	for i := 1; i < len(ph); i++ {
		d := ph[i] - ph[i-1]
		for d > math.Pi {
			ph[i] -= 2 * math.Pi
			d = ph[i] - ph[i-1]
		}
		for d < -math.Pi {
			ph[i] += 2 * math.Pi
			d = ph[i] - ph[i-1]
		}
	}
	return ph
}

// WrapAngle reduces an angle to (-π, π].
func WrapAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a > math.Pi {
		a -= 2 * math.Pi
	}
	if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// PhaseToIQ converts a phase signal to a unit-modulus IQ waveform scaled by
// amp: amp·e^{jθ[n]}.
func PhaseToIQ(theta []float64, amp float64) []complex128 {
	out := make([]complex128, len(theta))
	for i, t := range theta {
		out[i] = complex(amp*math.Cos(t), amp*math.Sin(t))
	}
	return out
}

// PhaseToIQInto writes amp·e^{jθ[n]} into dst, which must have the same
// length as theta — the allocation-free variant for hot paths that reuse
// their buffers.
func PhaseToIQInto(dst []complex128, theta []float64, amp float64) {
	if len(dst) != len(theta) {
		panic("dsp: PhaseToIQInto length mismatch")
	}
	for i, t := range theta {
		s, c := math.Sincos(t)
		dst[i] = complex(amp*c, amp*s)
	}
}

// IntegrateFrequency converts an instantaneous-frequency signal (radians
// per sample) into an accumulated phase signal starting at phase0. The
// returned phase uses the convention θ[n] = phase0 + Σ_{k≤n} ω[k], i.e. the
// first output sample already includes the first frequency step.
func IntegrateFrequency(omega []float64, phase0 float64) []float64 {
	out := make([]float64, len(omega))
	IntegrateFrequencyInto(out, omega, phase0)
	return out
}

// IntegrateFrequencyInto is IntegrateFrequency writing into a
// caller-provided buffer of the same length as omega (in-place use,
// dst == omega, is fine).
func IntegrateFrequencyInto(dst, omega []float64, phase0 float64) {
	if len(dst) != len(omega) {
		panic("dsp: IntegrateFrequencyInto length mismatch")
	}
	acc := phase0
	for i, w := range omega {
		acc += w
		dst[i] = acc
	}
}

// Discriminate computes the instantaneous frequency (radians per sample)
// of an IQ stream via the conjugate-product FM discriminator:
// ω[n] = arg(x[n]·conj(x[n-1])). The first sample is 0. This is the
// canonical demodulator structure in low-cost GFSK receivers.
func Discriminate(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i := 1; i < len(x); i++ {
		out[i] = cmplx.Phase(x[i] * cmplx.Conj(x[i-1]))
	}
	return out
}

// PhaseRMSE returns the root-mean-square wrapped phase difference between
// two IQ buffers over their common prefix, ignoring any constant phase
// offset (estimated as the circular mean of the difference). Amplitude is
// ignored entirely — the metric a GFSK receiver cares about.
func PhaseRMSE(a, b []complex128) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var sum complex128
	for i := 0; i < n; i++ {
		if a[i] == 0 || b[i] == 0 {
			continue
		}
		d := cmplx.Phase(a[i]) - cmplx.Phase(b[i])
		sum += cmplx.Exp(complex(0, d))
	}
	offset := cmplx.Phase(sum)
	var e float64
	for i := 0; i < n; i++ {
		if a[i] == 0 || b[i] == 0 {
			continue
		}
		d := WrapAngle(cmplx.Phase(a[i]) - cmplx.Phase(b[i]) - offset)
		e += d * d
	}
	return math.Sqrt(e / float64(n))
}
