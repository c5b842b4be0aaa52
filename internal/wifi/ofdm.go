package wifi

import (
	"fmt"

	"bluefi/internal/dsp"
)

// OFDMModulator converts frequency-domain symbols (64 grid-unit values
// indexed by FFT bin) into the time-domain waveform, applying cyclic-prefix
// insertion and, optionally, the per-symbol windowing of IEEE 802.11-2016
// §17.3.2.6 as illustrated in Fig. 2 of the BlueFi paper: each symbol is
// extended by one sample (the cyclic continuation) and overlapping samples
// of consecutive symbols are averaged.
type OFDMModulator struct {
	GuardSamples int  // 8 (SGI) or 16 (long GI)
	Windowing    bool // COTS-chip behaviour; false models SDR/USRP output
	plan         *dsp.FFTPlan
}

// NewOFDMModulator returns a modulator with the given guard length.
func NewOFDMModulator(guard int, windowing bool) (*OFDMModulator, error) {
	if guard != ShortGI && guard != LongGI {
		return nil, fmt.Errorf("wifi: guard interval %d samples, want %d or %d", guard, ShortGI, LongGI)
	}
	plan, err := dsp.PlanFor(FFTSize)
	if err != nil {
		return nil, err
	}
	return &OFDMModulator{GuardSamples: guard, Windowing: windowing, plan: plan}, nil
}

// SymbolLen returns the per-symbol sample count (GI + 64).
func (m *OFDMModulator) SymbolLen() int { return m.GuardSamples + FFTSize }

// Modulate converts the symbols to a contiguous waveform. Each input
// symbol is a 64-element frequency-domain vector in FFT-bin order (use
// dsp.SubcarrierBin to place subcarriers). The output has
// len(symbols)·SymbolLen()+1 samples when windowing is enabled (the final
// cyclic-extension sample is kept at half amplitude, matching the
// standard's boundary roll-off) and len(symbols)·SymbolLen() otherwise.
func (m *OFDMModulator) Modulate(symbols [][]complex128) ([]complex128, error) {
	T, gi := m.SymbolLen(), m.GuardSamples
	n := len(symbols)
	outLen := n * T
	if m.Windowing {
		outLen++
	}
	out := make([]complex128, outLen)
	for k, X := range symbols {
		if len(X) != FFTSize {
			return nil, fmt.Errorf("wifi: symbol %d has %d bins, want %d", k, len(X), FFTSize)
		}
		// IFFT output is (1/64)·ΣX[k]e^{...}: grid units stay visible to
		// FFT on the receive side. The body lands in place behind its
		// cyclic prefix, which copies the body's tail.
		base := k * T
		m.plan.InverseInto(out[base+gi:base+T], X)
		copy(out[base:base+gi], out[base+FFTSize:base+T])
	}
	if m.Windowing {
		// Each symbol's one-sample cyclic extension (body[0]) overlaps the
		// next symbol's first CP sample (its body[FFTSize−gi], still intact
		// at the end of its body); overlapping samples are averaged.
		for k := 0; k < n; k++ {
			ext := out[k*T+gi]
			if k+1 < n {
				first := out[(k+1)*T+FFTSize]
				out[(k+1)*T] = 0.5*ext + 0.5*first
			} else {
				out[n*T] = 0.5 * ext // packet-edge roll-off
			}
		}
	}
	return out, nil
}

// BuildSymbol assembles one frequency-domain symbol from 52 data-subcarrier
// grid points (in HTDataSubcarriers order), the pilot polarity index n
// (symbol counter including the preamble offset), and the pilot amplitude
// in grid units. Null subcarriers stay zero.
func BuildSymbol(data []complex128, polarityIndex int, pilotAmp float64) ([]complex128, error) {
	if len(data) != len(HTDataSubcarriers) {
		return nil, fmt.Errorf("wifi: %d data points, want %d", len(data), len(HTDataSubcarriers))
	}
	X := make([]complex128, FFTSize)
	for i, sub := range HTDataSubcarriers {
		X[dsp.SubcarrierBin(sub, FFTSize)] = data[i]
	}
	p := float64(PilotPolarity[polarityIndex%127])
	for i, sub := range PilotSubcarriers {
		X[dsp.SubcarrierBin(sub, FFTSize)] = complex(p*htPilotPattern[i]*pilotAmp, 0)
	}
	return X, nil
}

// PilotAmplitude is the pilot tone magnitude in grid units: pilots are
// BPSK at unit normalized energy, i.e. KMod of the data constellation —
// e.g. √42 ≈ 6.48 for 64-QAM, which is why the paper calls pilots "of
// higher magnitudes than those for data transmission" (average 64-QAM
// level is 4.4).
func PilotAmplitude(m Modulation) float64 { return m.KMod() }
