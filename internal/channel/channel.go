// Package channel simulates the radio path between the (real, in the
// paper; simulated, here) WiFi transmitter and a Bluetooth receiver:
// log-distance path loss, additive white Gaussian noise, carrier frequency
// offset, and bursty background-WiFi interference. It substitutes for the
// paper's over-the-air experiments (DESIGN.md §2); the figures it feeds
// only depend on RSSI/PER shape, which this model reproduces.
//
// Power convention: waveforms carry physical units — mean |x|² equals the
// signal power in watts. Use Apply to scale a unit-power transmit
// waveform to a transmit power and distance.
package channel

import (
	"fmt"
	"math"
	"math/rand"

	"bluefi/internal/dsp"
)

// Model describes one radio path.
type Model struct {
	// TxPowerDBm is the transmitter output power (AR9331 defaults to 18).
	TxPowerDBm float64
	// DistanceM is the TX–RX separation in meters.
	DistanceM float64
	// RefLossDB is the path loss at 1 m (≈ 40 dB free-space at 2.4 GHz).
	RefLossDB float64
	// PathLossExponent is the log-distance exponent (≈ 2.2 indoors LOS).
	PathLossExponent float64
	// NoiseFloorDBm is the total AWGN power across the 20 MHz simulation
	// bandwidth at the receiver input. Thermal noise in 20 MHz is
	// −101 dBm; typical office environments sit several dB above.
	NoiseFloorDBm float64
	// CFOHz applies a carrier frequency offset.
	CFOHz float64
	// ShadowingStdDB adds a per-packet log-normal shadowing term.
	ShadowingStdDB float64
	// Seed makes the channel deterministic; same seed, same noise.
	Seed int64
}

// Default returns the office-environment model used by the evaluation
// scenarios, at the given transmit power and distance.
func Default(txDBm, distM float64) Model {
	return Model{
		TxPowerDBm:       txDBm,
		DistanceM:        distM,
		RefLossDB:        40,
		PathLossExponent: 2.2,
		NoiseFloorDBm:    -95,
		ShadowingStdDB:   0,
		Seed:             1,
	}
}

// PathLossDB returns the distance-dependent loss.
func (m Model) PathLossDB() float64 {
	d := m.DistanceM
	if d < 0.05 {
		d = 0.05
	}
	return m.RefLossDB + 10*m.PathLossExponent*math.Log10(d)
}

// RxPowerDBm returns the mean received signal power.
func (m Model) RxPowerDBm() float64 { return m.TxPowerDBm - m.PathLossDB() }

// Apply propagates a transmit waveform: the input is normalized to unit
// mean power, scaled to the received power, frequency-shifted by the CFO
// and buried in AWGN. The returned slice is freshly allocated.
func (m Model) Apply(tx []complex128) ([]complex128, error) {
	if len(tx) == 0 {
		return nil, fmt.Errorf("channel: empty waveform")
	}
	meanP := dsp.MeanPower(tx)
	if meanP == 0 {
		return nil, fmt.Errorf("channel: zero-power waveform")
	}
	rng := rand.New(rand.NewSource(m.Seed))
	rxDBm := m.RxPowerDBm()
	if m.ShadowingStdDB > 0 {
		rxDBm += rng.NormFloat64() * m.ShadowingStdDB
	}
	gain := math.Sqrt(dsp.DBmToWatts(rxDBm) / meanP)
	out := make([]complex128, len(tx))
	for i, v := range tx {
		out[i] = v * complex(gain, 0)
	}
	if m.CFOHz != 0 {
		dsp.Mix(out, m.CFOHz, 20e6)
	}
	sigma := math.Sqrt(dsp.DBmToWatts(m.NoiseFloorDBm) / 2)
	for i := range out {
		out[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
	}
	return out, nil
}

// Interferer injects background WiFi traffic as noise-like OFDM bursts
// with a duty cycle — the §4.5 "saturate the WiFi channel" condition.
type Interferer struct {
	// PowerDBm is the burst power at the receiver.
	PowerDBm float64
	// DutyCycle is the fraction of time a burst is on the air.
	DutyCycle float64
	// BurstSamples is the typical burst length (a ~1500-byte frame at
	// 50 Mb/s is ≈ 240 µs ≈ 4800 samples).
	BurstSamples int
	// Seed drives burst placement and contents.
	Seed int64
}

// AddTo superimposes interference bursts onto iq in place.
func (f Interferer) AddTo(iq []complex128) {
	if f.DutyCycle <= 0 || f.BurstSamples <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(f.Seed))
	amp := math.Sqrt(dsp.DBmToWatts(f.PowerDBm) / 2)
	pos := 0
	for pos < len(iq) {
		// Idle gap drawn so that bursts occupy DutyCycle of the time.
		gap := int(float64(f.BurstSamples) * (1 - f.DutyCycle) / f.DutyCycle * (0.5 + rng.Float64()))
		pos += gap
		for i := 0; i < f.BurstSamples && pos < len(iq); i, pos = i+1, pos+1 {
			// OFDM data symbols are Gaussian-like in the time domain.
			iq[pos] += complex(amp*rng.NormFloat64(), amp*rng.NormFloat64())
		}
	}
}

// MeasureRSSIDBm returns the mean power of a waveform segment in dBm.
func MeasureRSSIDBm(iq []complex128) float64 {
	return dsp.WattsToDBm(dsp.MeanPower(iq))
}

// PeakDBm returns the peak instantaneous power in dBm.
func PeakDBm(iq []complex128) float64 {
	var peak float64
	for _, v := range iq {
		if p := real(v)*real(v) + imag(v)*imag(v); p > peak {
			peak = p
		}
	}
	return dsp.WattsToDBm(peak)
}

// SNRdB estimates signal-to-noise ratio between a clean reference and its
// noisy version.
func SNRdB(clean, noisy []complex128) float64 {
	n := len(clean)
	if len(noisy) < n {
		n = len(noisy)
	}
	var sig, noise float64
	for i := 0; i < n; i++ {
		sig += real(clean[i])*real(clean[i]) + imag(clean[i])*imag(clean[i])
		d := noisy[i] - clean[i]
		noise += real(d)*real(d) + imag(d)*imag(d)
	}
	if noise == 0 {
		return math.Inf(1)
	}
	return dsp.DB(sig / noise)
}
