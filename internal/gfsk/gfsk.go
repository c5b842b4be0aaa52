// Package gfsk synthesizes Bluetooth GFSK waveforms (paper §2.3): air bits
// are shaped into a Gaussian-filtered frequency trajectory, integrated
// into a phase signal, optionally shifted to the Bluetooth channel's
// offset from the WiFi channel center, and converted to IQ samples at the
// WiFi hardware rate of 20 Msps.
//
//bluefi:strict
package gfsk

import (
	"fmt"
	"math"
	"sync"

	"bluefi/internal/dsp"
)

// Config parameterizes the modulator.
type Config struct {
	// SampleRate in Hz; WiFi hardware generates IQ at 20 MHz.
	SampleRate float64
	// BitRate in bits/s; basic-rate Bluetooth and LE 1M are 1 Mb/s.
	BitRate float64
	// Deviation is the peak frequency deviation in Hz: ±160 kHz for
	// BR/EDR (modulation index 0.32), ±250 kHz for LE 1M (index 0.5).
	Deviation float64
	// BT is the Gaussian filter's bandwidth-time product (0.5 for
	// Bluetooth).
	BT float64
	// PadBits inserts zero-frequency (carrier-only) samples before and
	// after the packet, a pattern observed on commercial chips (§2.3).
	PadBits int
	// CenterOffset shifts the waveform to the Bluetooth channel's offset
	// from the WiFi channel center, in Hz. Applied to the phase signal
	// before CP design, since the two operations do not commute (§2.3).
	CenterOffset float64
}

// BRConfig returns the basic-rate configuration at 20 Msps.
func BRConfig() Config {
	return Config{SampleRate: 20e6, BitRate: 1e6, Deviation: 160e3, BT: 0.5, PadBits: 8}
}

// BLEConfig returns the LE 1M configuration at 20 Msps.
func BLEConfig() Config {
	return Config{SampleRate: 20e6, BitRate: 1e6, Deviation: 250e3, BT: 0.5, PadBits: 8}
}

// SamplesPerBit returns the oversampling factor, which must be an integer.
func (c Config) SamplesPerBit() int { return int(c.SampleRate / c.BitRate) }

func (c Config) validate() error {
	if c.SampleRate <= 0 || c.BitRate <= 0 {
		return fmt.Errorf("gfsk: rates must be positive")
	}
	spb := c.SampleRate / c.BitRate
	if spb != math.Trunc(spb) || spb < 2 {
		return fmt.Errorf("gfsk: %g samples per bit is not a usable integer", spb)
	}
	if c.Deviation <= 0 || c.Deviation >= c.BitRate {
		return fmt.Errorf("gfsk: deviation %g Hz out of range", c.Deviation)
	}
	if c.BT <= 0 || c.BT > 1 {
		return fmt.Errorf("gfsk: BT product %g out of range (0,1]", c.BT)
	}
	if c.PadBits < 0 {
		return fmt.Errorf("gfsk: negative pad")
	}
	return nil
}

// pulseCache memoizes the Gaussian shaping taps per (BT, spb, span).
// The pulse is data-independent and entries are shared read-only, so
// every packet of a stream reuses one tap set instead of resampling the
// Gaussian per synthesis.
var pulseCache struct {
	sync.Mutex
	m map[pulseKey][]float64
}

type pulseKey struct {
	bt       float64
	spb, spn int
}

func cachedPulse(bt float64, spb, spanBits int) []float64 {
	key := pulseKey{bt: bt, spb: spb, spn: spanBits}
	pulseCache.Lock()
	defer pulseCache.Unlock()
	if p, ok := pulseCache.m[key]; ok {
		return p
	}
	if pulseCache.m == nil {
		pulseCache.m = make(map[pulseKey][]float64)
	}
	p := dsp.GaussianPulse(bt, spb, spanBits)
	pulseCache.m[key] = p
	return p
}

// nrzInto expands air bits into a ±1 NRZ sample train with pad
// zero-frequency samples on each side. dst must hold
// 2*pad + len(airBits)*spb samples.
func nrzInto(dst []float64, airBits []byte, spb, pad int) {
	for i := range dst {
		dst[i] = 0
	}
	for i, b := range airBits {
		v := -1.0
		if b&1 == 1 {
			v = 1.0
		}
		for k := 0; k < spb; k++ {
			dst[pad+i*spb+k] = v
		}
	}
}

// FrequencySignal shapes air bits into the instantaneous-frequency
// trajectory in Hz (including pads), before any center offset.
func (c Config) FrequencySignal(airBits []byte) ([]float64, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	spb := c.SamplesPerBit()
	pad := c.PadBits * spb
	nrz := make([]float64, pad+len(airBits)*spb+pad)
	nrzInto(nrz, airBits, spb, pad)
	shaped := make([]float64, len(nrz))
	dsp.ConvolveRealInto(shaped, nrz, cachedPulse(c.BT, spb, 3))
	for i := range shaped {
		shaped[i] *= c.Deviation
	}
	return shaped, nil
}

// PhaseSignal converts air bits into the accumulated phase trajectory
// θ[n] in radians, with the configured center offset already mixed in —
// the exact input to BlueFi's CP-insertion design (§2.4). The frequency
// buffer is converted to angular steps and integrated in place, so one
// allocation serves the whole trajectory.
func (c Config) PhaseSignal(airBits []byte) ([]float64, error) {
	freq, err := c.FrequencySignal(airBits)
	if err != nil {
		return nil, err
	}
	offsetStep := 2 * math.Pi * c.CenterOffset / c.SampleRate
	for i, f := range freq {
		freq[i] = 2*math.Pi*f/c.SampleRate + offsetStep
	}
	dsp.IntegrateFrequencyInto(freq, freq, 0)
	return freq, nil
}

// Modulate produces the unit-amplitude IQ waveform for the air bits.
func (c Config) Modulate(airBits []byte) ([]complex128, error) {
	theta, err := c.PhaseSignal(airBits)
	if err != nil {
		return nil, err
	}
	return dsp.PhaseToIQ(theta, 1), nil
}

// PayloadStart returns the sample index where the first air bit begins.
func (c Config) PayloadStart() int { return c.PadBits * c.SamplesPerBit() }
