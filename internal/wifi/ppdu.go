package wifi

import (
	"fmt"

	"bluefi/internal/bits"
)

// TxConfig parameterizes the HT transmit chain.
type TxConfig struct {
	MCS           int
	ShortGI       bool
	ScramblerSeed uint8
	Windowing     bool // per-symbol OFDM windowing (COTS chips apply it)
	Preamble      bool // prepend the mixed-format preamble
}

// Transmitter is a reusable 802.11n HT transmit chain.
type Transmitter struct {
	cfg    TxConfig
	mcs    MCS
	il     *Interleaver
	mapper *Mapper
	mod    *OFDMModulator
}

// NewTransmitter validates the configuration and builds the chain.
func NewTransmitter(cfg TxConfig) (*Transmitter, error) {
	mcs, err := LookupMCS(cfg.MCS)
	if err != nil {
		return nil, err
	}
	il, err := NewInterleaver(mcs.NCBPS, mcs.Modulation.BitsPerSymbol(), HTColumns)
	if err != nil {
		return nil, err
	}
	guard := LongGI
	if cfg.ShortGI {
		guard = ShortGI
	}
	mod, err := NewOFDMModulator(guard, cfg.Windowing)
	if err != nil {
		return nil, err
	}
	return &Transmitter{
		cfg:    cfg,
		mcs:    mcs,
		il:     il,
		mapper: NewMapper(mcs.Modulation),
		mod:    mod,
	}, nil
}

// MCS returns the configured modulation-and-coding scheme.
func (t *Transmitter) MCS() MCS { return t.mcs }

// ScrambledDataBits builds the scrambled-domain data-field bit stream for
// a PSDU: SERVICE (16 zero bits) + PSDU + tail + pad, scrambled with the
// configured seed, with the six tail positions forced back to zero so the
// encoder returns to state 0 (17.3.5.3).
func (t *Transmitter) ScrambledDataBits(psdu []byte) ([]byte, error) {
	if len(psdu) > MaxPSDULen {
		return nil, fmt.Errorf("wifi: PSDU of %d bytes exceeds limit %d", len(psdu), MaxPSDULen)
	}
	nsym := SymbolsForPSDU(len(psdu), t.mcs)
	total := nsym * t.mcs.NDBPS
	data := make([]byte, total)
	copy(data[ServiceBits:], bits.UnpackLSB(psdu))
	scrambled := NewScrambler(t.cfg.ScramblerSeed).Scramble(data)
	// Zero the tail bits after scrambling.
	tailStart := ServiceBits + 8*len(psdu)
	for i := 0; i < TailBits; i++ {
		scrambled[tailStart+i] = 0
	}
	return scrambled, nil
}

// DataSymbols encodes a PSDU into per-symbol frequency-domain grid vectors
// (64 bins each, including pilots), plus the first pilot-polarity index
// used. These are the exact symbols the OFDM modulator will transmit.
func (t *Transmitter) DataSymbols(psdu []byte) ([][]complex128, error) {
	scrambled, err := t.ScrambledDataBits(psdu)
	if err != nil {
		return nil, err
	}
	return t.SymbolsFromScrambledBits(scrambled)
}

// SymbolsFromScrambledBits runs coding, interleaving and mapping over an
// already-scrambled data-field bit stream whose length is a multiple of
// NDBPS.
func (t *Transmitter) SymbolsFromScrambledBits(scrambled []byte) ([][]complex128, error) {
	if len(scrambled)%t.mcs.NDBPS != 0 {
		return nil, fmt.Errorf("wifi: %d scrambled bits not a multiple of NDBPS %d", len(scrambled), t.mcs.NDBPS)
	}
	return t.SymbolsFromCoded(EncodeRate(scrambled, t.mcs.Rate))
}

// SymbolsFromCoded runs interleaving and mapping over an already-encoded
// coded-bit stream whose length is a multiple of NCBPS. BlueFi uses this
// entry point: its synthesis pipeline re-encodes the scrambled-domain bits
// it produces anyway, to count the coded bits the inversion flipped.
func (t *Transmitter) SymbolsFromCoded(coded []byte) ([][]complex128, error) {
	if len(coded)%t.mcs.NCBPS != 0 {
		return nil, fmt.Errorf("wifi: %d coded bits not a multiple of NCBPS %d", len(coded), t.mcs.NCBPS)
	}
	nsym := len(coded) / t.mcs.NCBPS
	nbpsc := t.mcs.Modulation.BitsPerSymbol()
	pilotAmp := PilotAmplitude(t.mcs.Modulation)
	symbols := make([][]complex128, nsym)
	pts := make([]complex128, len(HTDataSubcarriers)) // BuildSymbol copies them out
	for s := 0; s < nsym; s++ {
		inter := t.il.Interleave(coded[s*t.mcs.NCBPS : (s+1)*t.mcs.NCBPS])
		for i := range pts {
			p, err := t.mapper.Map(inter[i*nbpsc : (i+1)*nbpsc])
			if err != nil {
				return nil, err
			}
			pts[i] = p
		}
		sym, err := BuildSymbol(pts, DataPolarityBase+s, pilotAmp)
		if err != nil {
			return nil, err
		}
		symbols[s] = sym
	}
	return symbols, nil
}

// DataPolarityBase is the pilot polarity index of the first HT data symbol
// in a mixed-format PPDU (L-SIG and two HT-SIG symbols consume 0–2).
const DataPolarityBase = 3

// Transmit produces the complete baseband IQ waveform for a PSDU,
// including the preamble when configured. The data portion starts at
// sample DataStart().
func (t *Transmitter) Transmit(psdu []byte) ([]complex128, error) {
	symbols, err := t.DataSymbols(psdu)
	if err != nil {
		return nil, err
	}
	data, err := t.mod.Modulate(symbols)
	if err != nil {
		return nil, err
	}
	return t.Frame(data, len(psdu))
}

// Frame prepends the preamble, when configured, to an already-modulated
// data field of a psduLen-byte PSDU; without a preamble it returns data
// itself.
func (t *Transmitter) Frame(data []complex128, psduLen int) ([]complex128, error) {
	if !t.cfg.Preamble {
		return data, nil
	}
	pre, _, err := Preamble(PreambleConfig{MCS: t.cfg.MCS, Length: psduLen, ShortGI: t.cfg.ShortGI})
	if err != nil {
		return nil, err
	}
	out := make([]complex128, 0, len(pre)+len(data))
	out = append(out, pre...)
	out = append(out, data...)
	return out, nil
}

// DataStart returns the sample offset of the first data symbol in the
// Transmit output.
func (t *Transmitter) DataStart() int {
	if t.cfg.Preamble {
		return PreambleLen
	}
	return 0
}

// SymbolLen returns the configured OFDM symbol length in samples.
func (t *Transmitter) SymbolLen() int { return t.mod.SymbolLen() }

// AirtimeSeconds returns the on-air duration of a PSDU of n bytes under
// this configuration (preamble + data symbols), used by the coexistence
// model.
func (t *Transmitter) AirtimeSeconds(n int) float64 {
	samples := SymbolsForPSDU(n, t.mcs) * t.mod.SymbolLen()
	if t.cfg.Preamble {
		samples += PreambleLen
	}
	return float64(samples) / SampleRate
}
