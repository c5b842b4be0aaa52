// Package dsp provides the signal-processing primitives the BlueFi pipeline
// is built from: FFT/IFFT, FIR filter design and application, Gaussian pulse
// shaping, phase-signal manipulation and power measurement. Everything works
// on []complex128 IQ buffers at an implicit sample rate carried by the
// caller (20 Msps throughout this repository, matching 20 MHz 802.11n).
//
//bluefi:strict
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// FFT conventions: Forward transform X[k] = Σ_n x[n]·e^{-j2πkn/N}; inverse
// x[n] = (1/N)·Σ_k X[k]·e^{+j2πkn/N}. With these conventions an OFDM
// modulator that emits (1/N)·ΣX[k]e^{...} round-trips exactly through FFT,
// so frequency-domain constellation points keep their integer grid units.

// FFTPlan caches twiddle factors for repeated transforms of one size.
// A plan is safe for concurrent use after creation.
type FFTPlan struct {
	n       int
	logn    int
	fwd     []complex128 // e^{-j2πk/n} for k < n/2
	inv     []complex128 // e^{+j2πk/n} for k < n/2
	bitrev  []int
	scratch bool
}

// NewFFTPlan creates a plan for size n, which must be a power of two ≥ 2.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two ≥ 2", n)
	}
	logn := 0
	for 1<<logn < n {
		logn++
	}
	p := &FFTPlan{n: n, logn: logn}
	p.fwd = make([]complex128, n/2)
	p.inv = make([]complex128, n/2)
	for k := 0; k < n/2; k++ {
		ang := 2 * math.Pi * float64(k) / float64(n)
		p.fwd[k] = cmplx.Exp(complex(0, -ang))
		p.inv[k] = cmplx.Exp(complex(0, +ang))
	}
	p.bitrev = make([]int, n)
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < logn; b++ {
			r = r<<1 | (i>>b)&1
		}
		p.bitrev[i] = r
	}
	return p, nil
}

// planCache shares FFTPlans across the process: a plan is immutable after
// creation (the twiddle and bit-reversal tables are read-only), so every
// synthesizer, modulator and receiver can use the same one concurrently,
// and twiddle factors are computed once per FFT size for the whole
// process instead of once per plan holder.
var planCache sync.Map // int -> *FFTPlan

// PlanFor returns the process-wide shared FFT plan for size n, creating
// it on first use. The returned plan is safe for concurrent use.
func PlanFor(n int) (*FFTPlan, error) {
	if v, ok := planCache.Load(n); ok {
		return v.(*FFTPlan), nil
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(n, p)
	return v.(*FFTPlan), nil
}

// Size returns the transform length.
func (p *FFTPlan) Size() int { return p.n }

func (p *FFTPlan) transform(dst, src []complex128, tw []complex128) {
	n := p.n
	for i, r := range p.bitrev {
		dst[i] = src[r]
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for j := start; j < start+half; j++ {
				t := tw[k] * dst[j+half]
				dst[j+half] = dst[j] - t
				dst[j] = dst[j] + t
				k += step
			}
		}
	}
}

// Forward computes the forward DFT of src into a new slice.
// len(src) must equal the plan size.
func (p *FFTPlan) Forward(src []complex128) []complex128 {
	p.check(src)
	dst := make([]complex128, p.n)
	p.transform(dst, src, p.fwd)
	return dst
}

// Inverse computes the inverse DFT (with 1/N scaling) of src into a new
// slice. len(src) must equal the plan size.
func (p *FFTPlan) Inverse(src []complex128) []complex128 {
	p.check(src)
	dst := make([]complex128, p.n)
	p.transform(dst, src, p.inv)
	s := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= s
	}
	return dst
}

// ForwardInto computes the forward DFT of src into dst, avoiding
// allocation on hot paths. dst and src must not alias and both must have
// the plan's length.
func (p *FFTPlan) ForwardInto(dst, src []complex128) {
	p.check(src)
	p.check(dst)
	p.transform(dst, src, p.fwd)
}

// InverseInto computes the inverse DFT (with 1/N scaling) of src into dst.
func (p *FFTPlan) InverseInto(dst, src []complex128) {
	p.check(src)
	p.check(dst)
	p.transform(dst, src, p.inv)
	s := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= s
	}
}

func (p *FFTPlan) check(v []complex128) {
	if len(v) != p.n {
		panic(fmt.Sprintf("dsp: FFT buffer length %d, plan size %d", len(v), p.n))
	}
}

// SubcarrierBin maps an OFDM subcarrier index (…,-2,-1,0,1,2,…) to the FFT
// bin index for transform size n: non-negative subcarriers occupy bins
// [0,n/2), negative subcarriers wrap to the top bins.
func SubcarrierBin(sub, n int) int {
	if sub >= 0 {
		return sub
	}
	return n + sub
}

// BinSubcarrier is the inverse of SubcarrierBin.
func BinSubcarrier(bin, n int) int {
	if bin < n/2 {
		return bin
	}
	return bin - n
}
