package core

import (
	"math"

	"bluefi/internal/dsp"
	"bluefi/internal/wifi"
)

// Impairment ablation (paper §4.6, Fig. 8): waveforms with each WiFi-
// hardware impairment applied cumulatively, so the cost of every block
// can be measured at a receiver. The paper transmitted these with a USRP;
// here they feed the channel/receiver simulation directly.

// Stage identifies one cumulative impairment level.
type Stage int

// Stages in the paper's Fig. 8 order.
const (
	StageBaseline  Stage = iota // ideal GFSK
	StageCP                     // + CP insertion/windowing design
	StageQAM                    // + constellation quantization
	StagePilotNull              // + pilot tones and null subcarriers
	StageFEC                    // + FEC inversion (coded-bit flips)
	StageHeader                 // + preamble and frame pinning: the full chip output
)

// Stages lists all stages in order.
var Stages = []Stage{StageBaseline, StageCP, StageQAM, StagePilotNull, StageFEC, StageHeader}

func (s Stage) String() string {
	switch s {
	case StageBaseline:
		return "Baseline"
	case StageCP:
		return "+CP"
	case StageQAM:
		return "+QAM"
	case StagePilotNull:
		return "+Pilot/Null"
	case StageFEC:
		return "+FEC"
	case StageHeader:
		return "+Header"
	}
	return "Stage(?)"
}

// AblationWaveform is one stage's output.
type AblationWaveform struct {
	Stage Stage
	IQ    []complex128
	// PacketStart is the offset of the Bluetooth packet's first air bit.
	PacketStart int
}

// Ablation builds the waveform at every stage for the given packet. The
// synthesizer's options apply to the final stages (the +Header stage is a
// full Synthesize).
func (s *Synthesizer) Ablation(airBits []byte, btMHz float64) ([]AblationWaveform, error) {
	plan, err := PlanForChannel(btMHz, s.opts.WiFiChannel)
	if err != nil {
		return nil, err
	}
	theta, lead, nsym, err := s.buildTargetPhase(airBits, plan.OffsetHz)
	if err != nil {
		return nil, err
	}
	thetaHat, err := DesignCP(theta, wifi.ShortGI)
	if err != nil {
		return nil, err
	}
	pad := s.opts.GFSK.PadBits * s.opts.GFSK.SamplesPerBit()

	g := s.opts.GFSK
	g.CenterOffset = plan.OffsetHz
	ideal, err := g.Modulate(airBits)
	if err != nil {
		return nil, err
	}

	out := []AblationWaveform{
		{Stage: StageBaseline, IQ: ideal, PacketStart: pad},
		{Stage: StageCP, IQ: dsp.PhaseToIQ(thetaHat, 1), PacketStart: lead + pad},
	}

	quantized, err := s.ablationSymbols(thetaHat, nsym, plan.OffsetHz, false)
	if err != nil {
		return nil, err
	}
	wave, err := s.modulateSymbols(quantized)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationWaveform{Stage: StageQAM, IQ: wave, PacketStart: lead + pad})

	piloted, err := s.ablationSymbols(thetaHat, nsym, plan.OffsetHz, true)
	if err != nil {
		return nil, err
	}
	wave, err = s.modulateSymbols(piloted)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationWaveform{Stage: StagePilotNull, IQ: wave, PacketStart: lead + pad})

	// +FEC: run the inversion without frame pinning or preamble.
	coded, err := s.fitSymbols(thetaHat, nsym, plan.OffsetHz)
	if err != nil {
		return nil, err
	}
	weights := s.codedBitWeights(plan.OffsetHz, nsym)
	data, err := s.invert(coded, weights, nsym)
	if err != nil {
		return nil, err
	}
	symbols, err := s.tx.SymbolsFromScrambledBits(data)
	if err != nil {
		return nil, err
	}
	wave, err = s.modulateSymbols(symbols)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationWaveform{Stage: StageFEC, IQ: wave, PacketStart: lead + pad})

	// +Header: the complete pipeline (pinning, pad bits, preamble).
	full, err := s.Synthesize(airBits, btMHz)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationWaveform{
		Stage:       StageHeader,
		IQ:          full.Waveform,
		PacketStart: full.DataStart + full.GFSKStart + pad,
	})
	return out, nil
}

// ablationSymbols quantizes each symbol's data subcarriers; when
// forcePilots is set, pilots and nulls take their hardware values,
// otherwise they keep the unquantized FFT content (as an SDR could
// transmit).
func (s *Synthesizer) ablationSymbols(thetaHat []float64, nsym int, offsetHz float64, forcePilots bool) ([][]complex128, error) {
	A := s.opts.ScaleFactor
	body := make([]complex128, wifi.FFTSize)
	symbols := make([][]complex128, nsym)
	for k := 0; k < nsym; k++ {
		base := k*symbolLen + wifi.ShortGI
		for n := 0; n < wifi.FFTSize; n++ {
			t := thetaHat[base+n]
			body[n] = complex(A*math.Cos(t), A*math.Sin(t))
		}
		X := s.plan.Forward(body)
		sym := make([]complex128, wifi.FFTSize)
		for b := range X {
			sym[b] = X[b] / GridScale
		}
		for _, sub := range wifi.HTDataSubcarriers {
			b := dsp.SubcarrierBin(sub, wifi.FFTSize)
			sym[b] = s.mapper.Quantize(sym[b])
		}
		if forcePilots {
			pts := make([]complex128, len(wifi.HTDataSubcarriers))
			for i, sub := range wifi.HTDataSubcarriers {
				pts[i] = sym[dsp.SubcarrierBin(sub, wifi.FFTSize)]
			}
			forced, err := wifi.BuildSymbol(pts, wifi.DataPolarityBase+k, wifi.PilotAmplitude(s.mcs.Modulation))
			if err != nil {
				return nil, err
			}
			sym = forced
		}
		symbols[k] = sym
	}
	return symbols, nil
}

// modulateSymbols runs the OFDM modulator with the synthesizer's
// windowing setting.
func (s *Synthesizer) modulateSymbols(symbols [][]complex128) ([]complex128, error) {
	mod, err := wifi.NewOFDMModulator(wifi.ShortGI, s.opts.Windowing)
	if err != nil {
		return nil, err
	}
	return mod.Modulate(symbols)
}
