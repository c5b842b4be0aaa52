//go:build !amd64

package dsp

// hasAVX is false off amd64: ApplyInto runs its Go interior only.
const hasAVX = false

// firVector is the amd64 AVX interior; elsewhere it writes nothing.
func firVector(out, x []complex128, taps []float64, d, lo, hi int) int { return lo }
