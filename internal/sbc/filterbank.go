// Package sbc implements the SBC (sub-band coding) audio codec that A2DP
// mandates and the paper's audio demo streams (§4.7): a cosine-modulated
// analysis/synthesis filterbank, per-subband scale factors, an adaptive
// bit allocator over a shared bitpool, midtread quantization, and the SBC
// frame format (syncword 0x9C, header, CRC-8, packed subband samples).
//
// Substitution note (DESIGN.md §2): the Bluetooth SIG's 40/80-tap
// prototype-filter tables are not reproducible offline, so the filterbank
// uses a sine-windowed cosine modulation (Princen–Bradley structure) with
// provable perfect reconstruction in the absence of quantization. Frame
// sizes, rates and the bitstream structure — everything the PHY and the
// experiments see — match SBC.
package sbc

import (
	"fmt"
	"math"
)

// Filterbank is a critically-sampled M-band cosine-modulated filterbank
// with 2M-tap analysis/synthesis filters and time-domain alias
// cancellation. The zero value is unusable; create with NewFilterbank.
type Filterbank struct {
	m       int
	h       [][]float64 // h[k][n]: analysis/synthesis filters
	state   []float64   // last M input samples (analysis)
	overlap []float64   // synthesis overlap-add tail
}

// NewFilterbank creates an M-band filterbank (SBC uses 4 or 8).
func NewFilterbank(m int) (*Filterbank, error) {
	if m != 4 && m != 8 {
		return nil, fmt.Errorf("sbc: %d subbands unsupported (want 4 or 8)", m)
	}
	fb := &Filterbank{m: m, state: make([]float64, m), overlap: make([]float64, m)}
	fb.h = make([][]float64, m)
	n2 := 2 * m
	for k := 0; k < m; k++ {
		fb.h[k] = make([]float64, n2)
		for n := 0; n < n2; n++ {
			w := math.Sin(math.Pi * (float64(n) + 0.5) / float64(n2))
			fb.h[k][n] = w * math.Cos(math.Pi/float64(m)*(float64(k)+0.5)*(float64(n)+0.5+float64(m)/2))
		}
	}
	return fb, nil
}

// Subbands returns M.
func (fb *Filterbank) Subbands() int { return fb.m }

// Analyze consumes exactly M input samples and produces M subband
// samples. Successive calls maintain filter state across blocks.
func (fb *Filterbank) Analyze(in []float64) ([]float64, error) {
	if len(in) != fb.m {
		return nil, fmt.Errorf("sbc: analyze needs %d samples, got %d", fb.m, len(in))
	}
	buf := make([]float64, 2*fb.m)
	copy(buf, fb.state)
	copy(buf[fb.m:], in)
	copy(fb.state, in)
	out := make([]float64, fb.m)
	for k := 0; k < fb.m; k++ {
		var acc float64
		for n, h := range fb.h[k] {
			acc += h * buf[n]
		}
		out[k] = acc
	}
	return out, nil
}

// Synthesize consumes M subband samples and produces M output samples
// (with one block of algorithmic delay relative to the analysis input).
func (fb *Filterbank) Synthesize(sub []float64) ([]float64, error) {
	if len(sub) != fb.m {
		return nil, fmt.Errorf("sbc: synthesize needs %d samples, got %d", fb.m, len(sub))
	}
	block := make([]float64, 2*fb.m)
	scale := 2.0 / float64(fb.m)
	for k, s := range sub {
		for n, h := range fb.h[k] {
			block[n] += scale * s * h
		}
	}
	out := make([]float64, fb.m)
	for n := 0; n < fb.m; n++ {
		out[n] = fb.overlap[n] + block[n]
	}
	copy(fb.overlap, block[fb.m:])
	return out, nil
}
