package dsp

import (
	"math"
	"math/cmplx"
)

// Energy returns Σ|x[n]|².
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// MeanPower returns Energy/len, or 0 for an empty slice.
func MeanPower(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// Scale multiplies x in place by the real factor a and returns x.
func Scale(x []complex128, a float64) []complex128 {
	c := complex(a, 0)
	for i := range x {
		x[i] *= c
	}
	return x
}

// Add returns a+b element-wise in a new slice; the inputs must have equal
// length.
func Add(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// AddInto accumulates src into dst element-wise over the overlapping prefix.
func AddInto(dst, src []complex128) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] += src[i]
	}
}

// RMSE returns sqrt(mean |a-b|²) over the common prefix of a and b.
func RMSE(a, b []complex128) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var e float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		e += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(e / float64(n))
}

// DB converts a power ratio to decibels; ratios ≤ 0 map to -inf.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// DBmToWatts converts dBm to watts.
func DBmToWatts(dbm float64) float64 { return math.Pow(10, (dbm-30)/10) }

// WattsToDBm converts watts to dBm; non-positive power maps to -inf.
func WattsToDBm(w float64) float64 {
	if w <= 0 {
		return math.Inf(-1)
	}
	return 10*math.Log10(w) + 30
}

// Tone synthesizes n samples of a complex exponential at freq (Hz) given
// sampleRate (Hz), starting at phase0 radians.
func Tone(n int, freq, sampleRate, phase0 float64) []complex128 {
	out := make([]complex128, n)
	step := 2 * math.Pi * freq / sampleRate
	for i := range out {
		out[i] = cmplx.Exp(complex(0, phase0+step*float64(i)))
	}
	return out
}

// Mix shifts x by freq Hz in place, x[n] *= e^{j2π·freq·n/sampleRate},
// and returns x.
func Mix(x []complex128, freq, sampleRate float64) []complex128 {
	step := 2 * math.Pi * freq / sampleRate
	for i := range x {
		x[i] *= rotation(step, i)
	}
	return x
}

// Rotations returns the first n factors Mix multiplies by at freq, so
// that MixBy(x, Rotations(freq, sampleRate, len(x))) is Mix(x, freq,
// sampleRate) bit for bit: a table for mixing several signals by the
// same offset.
func Rotations(freq, sampleRate float64, n int) []complex128 {
	step := 2 * math.Pi * freq / sampleRate
	rot := make([]complex128, n)
	for i := range rot {
		rot[i] = rotation(step, i)
	}
	return rot
}

// MixBy multiplies x in place by the leading len(x) factors of rot (a
// Rotations table at least as long as x) and returns x.
func MixBy(x, rot []complex128) []complex128 {
	rot = rot[:len(x)]
	for i := range x {
		x[i] *= rot[i]
	}
	return x
}

// rotation is e^{j·step·i}, the one expression behind Mix and Rotations
// (cmplx.Exp(jφ) without its exp(0) factor). Adding 0 keeps the first
// factor at 1+0i when step is negative, where step·0 is −0.
func rotation(step float64, i int) complex128 {
	sin, cos := math.Sincos(0 + step*float64(i))
	return complex(cos, sin)
}
