package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"bluefi/internal/bits"
	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/dsp"
	"bluefi/internal/faults"
	"bluefi/internal/gfsk"
	"bluefi/internal/obs"
	"bluefi/internal/viterbi"
	"bluefi/internal/wifi"
)

// Mode selects the FEC-inversion strategy (§2.7).
type Mode int

// Modes.
const (
	// Quality uses the weighted Viterbi search over the rate-5/6 code
	// (minimal information loss — the paper's offline/beacon path).
	Quality Mode = iota
	// RealTime uses the O(T) exact-match inverse coder over the rate-2/3
	// code (the paper's audio path, ≈50× faster).
	RealTime
)

func (m Mode) String() string {
	if m == RealTime {
		return "real-time"
	}
	return "quality"
}

// MCS returns the modulation-and-coding scheme each mode transmits at.
func (m Mode) MCS() int {
	if m == RealTime {
		return 5 // 64-QAM rate 2/3
	}
	return 7 // 64-QAM rate 5/6
}

// Options configures a Synthesizer.
type Options struct {
	// Mode selects Quality (default) or RealTime synthesis.
	Mode Mode
	// WiFiChannel is the 2.4 GHz channel the chip transmits on (1–13).
	WiFiChannel int
	// ScramblerSeed must match the chip's (fixed or predicted) seed.
	ScramblerSeed uint8
	// Windowing mirrors COTS-chip per-symbol OFDM windowing (default
	// true via New; setting it false models SDR output).
	Windowing bool
	// Preamble includes the mixed-format preamble in predicted waveforms.
	Preamble bool
	// GFSK carries the Bluetooth modulation parameters; CenterOffset is
	// overwritten by frequency planning.
	GFSK gfsk.Config
	// ScaleFactor is the §2.5 amplitude A applied before the FFT
	// (default 1/2, placing two-tone splits near grid magnitude 32≈7·5).
	ScaleFactor float64
	// DynamicScale searches a small per-symbol scale grid for the lowest
	// in-band quantization residue instead of the fixed factor. The paper
	// found dynamic scaling "negligible benefit, significantly higher
	// complexity" (§2.5) on its hardware receivers; against this
	// repository's simulated discriminator it is decisive (PER 65 % →
	// 8 % combined with PhaseSearch), so DefaultOptions enables it. Set
	// false for the paper's exact configuration (the §4.8 timing
	// experiment does).
	DynamicScale bool
	// LeadSymbols of carrier-only padding precede the Bluetooth packet,
	// keeping the pinned SERVICE-field symbol clear of it (default 2).
	LeadSymbols int
	// PhaseSearch synthesizes the packet at the four phase quadrants
	// (identical lattice geometry, different pilot-relative phase) and
	// keeps the one with the lowest in-band phase error — roughly 3×
	// fewer packet errors at 4× synthesis cost in measurements. Enabled
	// by DefaultOptions; disabled automatically with PSDUOnly (no
	// waveform to score). An extension beyond the paper.
	PhaseSearch bool
	// PilotPrecompensation subtracts the pilot tones' predicted in-band
	// phase perturbation from the target phase before synthesis. The
	// correction is deterministic — the pilot waveform is fixed by the
	// standard and independent of the data — so it cancels cleanly.
	// Enabled by DefaultOptions; an extension beyond the paper, ablated
	// in the benches.
	PilotPrecompensation bool
	// SearchParallelism bounds the worker count of the PhaseSearch
	// candidate evaluation. 0 sizes the pool to min(GOMAXPROCS, 4) (four
	// rotations per search group); 1 forces the serial search; larger
	// values are capped at the group width. Parallel and serial searches
	// are guaranteed to select the same candidate — ties break by
	// candidate order, not completion order — so the synthesized PSDU is
	// bit-identical either way.
	SearchParallelism int
	// PSDUOnly skips predicted-waveform generation: Result.Waveform is
	// nil and PhaseRMSE is zero. The paper's pipeline emits only the
	// PSDU; this option makes the §4.8 timing comparison apples-to-apples
	// and is what a driver integration wants on the hot path.
	PSDUOnly bool
	// Telemetry, when non-nil, receives per-stage latency histograms,
	// synthesis spans and rehearsal counters (see internal/obs). The
	// instrumentation records timing and counts only — it never feeds the
	// synthesized bits — and a nil registry costs one branch per record.
	// Worker clones of the parallel phase search share the registry.
	Telemetry *obs.Registry
	// Faults, when non-nil, is consulted once per Synthesize call and
	// may fail it with an injected error — the chaos-test hook for
	// synthesis failure. Like Telemetry it never feeds the synthesized
	// bits: with a nil (or non-firing) injector the output is
	// bit-identical to an uninstrumented run.
	Faults *faults.Injector
	// CPPrecompensation likewise subtracts the CP-design construction's
	// own in-band phase error (θ̂ vs θ through the nominal channel
	// filter) from the target. The CP corruption is structural and fully
	// known before any quantization, so this correction also cancels
	// cleanly to first order. Enabled by DefaultOptions; an extension
	// beyond the paper, ablated in the benches.
	CPPrecompensation bool
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: quality mode on WiFi channel 3 with SGI, windowing on.
func DefaultOptions() Options {
	return Options{
		Mode:          Quality,
		WiFiChannel:   3,
		ScramblerSeed: 71, // RTL8811AU's constant; AR9331 pinned to 1
		Windowing:     true,
		Preamble:      true,
		GFSK:          gfsk.BRConfig(),
		ScaleFactor:   0.5,
		DynamicScale:  true,
		LeadSymbols:   2,

		PilotPrecompensation: true,
		CPPrecompensation:    true,
		PhaseSearch:          true,
	}
}

// Timings breaks down where synthesis time goes (§4.8).
type Timings struct {
	IQGen    time.Duration // GFSK phase construction + CP design
	FFTQAM   time.Duration // per-symbol FFT and constellation fitting
	FEC      time.Duration // Viterbi or real-time inversion
	Scramble time.Duration // descrambling and PSDU packing
}

// Total sums the per-stage timings.
func (t Timings) Total() time.Duration { return t.IQGen + t.FFTQAM + t.FEC + t.Scramble }

// Add accumulates another pass's stage timings. The PhaseSearch paths
// use it so a searched Result reports the time of every candidate it
// evaluated, keeping Timings consistent with the per-candidate stage
// histograms; re-slotting callers sum their attempts the same way.
func (t *Timings) Add(o Timings) {
	t.IQGen += o.IQGen
	t.FFTQAM += o.FFTQAM
	t.FEC += o.FEC
	t.Scramble += o.Scramble
}

// Result is the outcome of synthesizing one Bluetooth packet.
type Result struct {
	// PSDU is the byte string to hand to the WiFi chip.
	PSDU []byte
	// Plan records the frequency planning decision.
	Plan ChannelPlan
	// Symbols is the OFDM data symbol count.
	Symbols int
	// CodedBits, Flips and ImportantFlips quantify FEC-inversion quality:
	// how many coded bits changed when re-encoding the decoded input, and
	// how many of those carried WeightImportant. PacketImportantFlips
	// restricts the count to OFDM symbols overlapping the Bluetooth
	// packet — flips in the carrier-only lead/tail symbols (where the
	// pinned SERVICE field lives) are harmless by design.
	CodedBits, Flips, ImportantFlips, PacketImportantFlips int
	// PhaseRMSE measures the predicted waveform's phase error against the
	// ideal GFSK waveform over the packet span, through a nominal 600 kHz
	// Bluetooth channel filter (radians): the fidelity a Bluetooth
	// receiver actually experiences.
	PhaseRMSE float64
	// Waveform is the predicted chip output (what hardware will emit for
	// PSDU under the same configuration), including the preamble when
	// configured.
	Waveform []complex128
	// dataWave is the modulated data field (Waveform[DataStart:]). The
	// search rehearses candidates on it; finish frames Waveform from it
	// for the returned result only.
	dataWave []complex128
	// targetPhase keeps the offset-mixed target for rehearsal scoring
	// and fidelity; finish drops it.
	targetPhase []float64
	// DataStart is the offset of the first data symbol in Waveform;
	// GFSKStart is the offset of the Bluetooth packet's first air bit
	// within the data region.
	DataStart, GFSKStart int
	// RehearsalMismatches counts bit decisions the synthesis-time
	// reception rehearsal got wrong at the chosen search candidate (−1
	// when no rehearsal ran).
	RehearsalMismatches int
	// RehearsalDecodes reports whether those mismatches fit the packet's
	// FEC layout (see SynthesizeFEC): the rehearsal predicts a receiver
	// decodes the packet on a clean link. Callers with scheduling freedom
	// (the audio path) re-slot instead of transmitting a frame predicted
	// to fail. With no rehearsal (RehearsalMismatches −1) nothing
	// predicts a failure, and it is true.
	RehearsalDecodes bool
	// Timings records the per-stage execution time. With PhaseSearch it
	// covers every candidate the search evaluated — where the packet's
	// synthesis time actually went — matching the per-candidate
	// bluefi_core_stage_seconds histograms by construction.
	Timings Timings
}

// Synthesizer converts Bluetooth air bits into WiFi PSDUs.
//
// A Synthesizer is not safe for concurrent use. The PhaseSearch candidate
// evaluation parallelizes internally (see Options.SearchParallelism) over
// private worker clones, so callers still treat the whole object as
// single-threaded; for concurrent multi-packet workloads, use one
// Synthesizer per goroutine (the root package's Pool does exactly that).
type Synthesizer struct {
	opts       Options
	mcs        wifi.MCS
	il         *wifi.Interleaver
	mapper     *wifi.Mapper
	plan       *dsp.FFTPlan
	tx         *wifi.Transmitter
	mod        *wifi.OFDMModulator
	channelFIR *dsp.FIR
	rehearseRx *btrx.Receiver

	// fitSymbols scratch: the time/frequency buffers, one symbol's
	// sin/cos of the designed phase (shared by every trial scale), the
	// winning scale's data-subcarrier FFT values, the interleaved bits
	// they demap to, and the per-subcarrier in-band mask of the last
	// offset.
	fitBody, fitX  []complex128
	fitSin, fitCos []float64
	fitBest        []complex128
	fitInter       []byte
	fitInband      []bool

	// workers are the PhaseSearch clones, built lazily on the first
	// parallel search.
	workers []*Synthesizer

	// pilotIBCache memoizes the in-band pilot waveform per (nsym,
	// offset): it is data-independent, so audio streams reuse it.
	pilotIBCache map[pilotKey][]complex128

	// weightsCache memoizes CodedBitWeights per (nsym, offset) — also
	// data-independent, and rebuilt twice per packet otherwise. Entries
	// are shared read-only with the Viterbi inverters.
	weightsCache map[pilotKey][]float64

	// Telemetry: met/vmet are nil when Options.Telemetry is nil (every
	// observe method then no-ops); obsCtx is the span root carrying the
	// registry, precomputed so the hot path allocates no context when
	// telemetry is disabled.
	met    *coreMetrics
	vmet   *viterbi.Metrics
	obsCtx context.Context
}

type pilotKey struct {
	nsym   int
	offset float64
}

// New validates options (zero values get defaults) and builds the
// synthesizer.
func New(opts Options) (*Synthesizer, error) {
	if opts.WiFiChannel == 0 {
		opts.WiFiChannel = 3
	}
	if _, err := wifi.Channel2GHzCenter(opts.WiFiChannel); err != nil {
		return nil, err
	}
	if opts.ScaleFactor == 0 {
		opts.ScaleFactor = 0.5
	}
	if opts.ScaleFactor < 0.05 || opts.ScaleFactor > 1 {
		return nil, fmt.Errorf("core: scale factor %g out of range", opts.ScaleFactor)
	}
	if opts.LeadSymbols == 0 {
		opts.LeadSymbols = 2
	}
	if opts.LeadSymbols < 1 || opts.LeadSymbols > 16 {
		return nil, fmt.Errorf("core: lead of %d symbols out of range", opts.LeadSymbols)
	}
	if opts.GFSK.SampleRate == 0 {
		opts.GFSK = gfsk.BRConfig()
	}
	if opts.GFSK.SampleRate != wifi.SampleRate {
		return nil, fmt.Errorf("core: GFSK sample rate %g must match WiFi's %g", opts.GFSK.SampleRate, wifi.SampleRate)
	}
	if opts.SearchParallelism < 0 {
		return nil, fmt.Errorf("core: search parallelism %d is negative", opts.SearchParallelism)
	}
	mcs, err := wifi.LookupMCS(opts.Mode.MCS())
	if err != nil {
		return nil, err
	}
	il, err := wifi.NewInterleaver(mcs.NCBPS, mcs.Modulation.BitsPerSymbol(), wifi.HTColumns)
	if err != nil {
		return nil, err
	}
	plan, err := dsp.PlanFor(wifi.FFTSize)
	if err != nil {
		return nil, err
	}
	tx, err := wifi.NewTransmitter(wifi.TxConfig{
		MCS:           opts.Mode.MCS(),
		ShortGI:       true,
		ScramblerSeed: opts.ScramblerSeed,
		Windowing:     opts.Windowing,
		Preamble:      opts.Preamble,
	})
	if err != nil {
		return nil, err
	}
	mod, err := wifi.NewOFDMModulator(wifi.ShortGI, opts.Windowing)
	if err != nil {
		return nil, err
	}
	// The nominal Bluetooth channel filter every in-band correction and
	// fidelity measure shares.
	channelFIR, err := dsp.LowpassFIR(600e3, wifi.SampleRate, 101)
	if err != nil {
		return nil, err
	}
	s := &Synthesizer{opts: opts, mcs: mcs, il: il, mapper: wifi.NewMapper(mcs.Modulation), plan: plan, tx: tx, mod: mod,
		channelFIR: channelFIR}
	s.fitBody = make([]complex128, wifi.FFTSize)
	s.fitX = make([]complex128, wifi.FFTSize)
	s.fitSin = make([]float64, wifi.FFTSize)
	s.fitCos = make([]float64, wifi.FFTSize)
	s.fitBest = make([]complex128, len(wifi.HTDataSubcarriers))
	s.fitInter = make([]byte, mcs.NCBPS)
	s.fitInband = make([]bool, len(wifi.HTDataSubcarriers))
	s.met = newCoreMetrics(opts.Telemetry, opts.Mode)
	s.vmet = viterbi.NewMetrics(opts.Telemetry)
	s.obsCtx = obs.WithRegistry(context.Background(), opts.Telemetry)
	return s, nil
}

// Options returns the synthesizer's (defaulted) configuration.
func (s *Synthesizer) Options() Options { return s.opts }

// symbolLen is the SGI OFDM symbol span in samples.
const symbolLen = wifi.ShortGI + wifi.FFTSize

// GridScale relates FFT units of the A-scaled target waveform to
// constellation grid units (§2.5): with A = 1/2 a tone splitting across
// two subcarriers peaks near 32 FFT units, "close to 35 (= 7·5)" — i.e.
// one constellation step spans 5 FFT units, so the 64-QAM axis range ±7
// covers ±35 and the strongest bins are never clamped. The chip's
// absolute output scale is arbitrary (GFSK receivers ignore amplitude),
// so only this ratio matters.
const GridScale = 5.0

// buildTargetPhase lays the GFSK phase signal into a whole number of OFDM
// symbols, extending the carrier-only slope before and after the packet.
func (s *Synthesizer) buildTargetPhase(airBits []byte, offsetHz float64) (theta []float64, lead, nsym int, err error) {
	g := s.opts.GFSK
	g.CenterOffset = 0
	pkt, err := g.PhaseSignal(airBits)
	if err != nil {
		return nil, 0, 0, err
	}
	theta, lead, nsym = s.layoutPhase(pkt, offsetHz, 0, 0)
	return theta, lead, nsym, nil
}

// layoutPhase mixes a baseband packet phase up to the planned offset and
// lays it into a whole number of OFDM symbols, extending the carrier-only
// slope before and after the packet. The mixing happens here — before CP
// design — because offset mixing and CP insertion do not commute (§2.3).
// extraLead symbols pad the lead and rot rotates the whole frame: the
// two axes of the rehearsal search.
func (s *Synthesizer) layoutPhase(pkt []float64, offsetHz float64, extraLead int, rot float64) (theta []float64, lead, nsym int) {
	lead = (s.opts.LeadSymbols + extraLead) * symbolLen
	total := lead + len(pkt) + symbolLen // one tail symbol of slack
	nsym = (total + symbolLen - 1) / symbolLen
	theta = make([]float64, nsym*symbolLen)
	slope := 2 * math.Pi * offsetHz / wifi.SampleRate
	for n := range theta {
		switch {
		case n < lead:
			theta[n] = pkt[0]
		case n < lead+len(pkt):
			theta[n] = pkt[n-lead]
		default:
			theta[n] = pkt[len(pkt)-1]
		}
		// Carrier offset: a linear phase ramp over the whole frame, plus
		// the search's global rotation.
		theta[n] += slope*float64(n) + rot
	}
	return theta, lead, nsym
}

// fitSymbols converts the CP-designed phase signal into quantized
// frequency-domain data points and the coded-bit targets they demap to.
// offsetHz locates the Bluetooth band the scale search fits. Each trial
// scale is scored on its in-band bins alone; only the winner's data
// subcarriers are quantized and demapped.
func (s *Synthesizer) fitSymbols(thetaHat []float64, nsym int, offsetHz float64) (coded []byte, err error) {
	nbpsc := s.mcs.Modulation.BitsPerSymbol()
	coded = make([]byte, nsym*s.mcs.NCBPS)
	body, X, best, inter := s.fitBody, s.fitX, s.fitBest, s.fitInter
	sinT, cosT := s.fitSin, s.fitCos
	single := [1]float64{s.opts.ScaleFactor}
	scales := single[:]
	if s.opts.DynamicScale {
		scales = dynamicScales
	}
	inband := s.fitInband
	for i, sub := range wifi.HTDataSubcarriers {
		inband[i] = SubcarrierWeight(sub, offsetHz) >= WeightAdjacent
	}
	for k := 0; k < nsym; k++ {
		base := k*symbolLen + wifi.ShortGI
		bestResidue := math.Inf(1)
		for n := range sinT {
			sinT[n], cosT[n] = math.Sincos(thetaHat[base+n])
		}
		for _, A := range scales {
			for n := range body {
				body[n] = complex(A*cosT[n], A*sinT[n])
			}
			s.plan.ForwardInto(X, body)
			// Only the Bluetooth-band fit matters: out-of-band residue is
			// filtered at the receiver, and the scale search should not
			// chase it.
			residue := 0.0
			for i, sub := range wifi.HTDataSubcarriers {
				if inband[i] {
					v := X[dsp.SubcarrierBin(sub, wifi.FFTSize)] / GridScale
					d := v - s.mapper.Quantize(v)
					residue += real(d)*real(d) + imag(d)*imag(d)
				}
			}
			if residue /= A * A; residue < bestResidue {
				bestResidue = residue
				for i, sub := range wifi.HTDataSubcarriers {
					best[i] = X[dsp.SubcarrierBin(sub, wifi.FFTSize)]
				}
			}
		}
		if math.IsInf(bestResidue, 1) {
			return nil, fmt.Errorf("core: symbol %d: no trial scale has a finite residue", k)
		}
		for i, x := range best {
			q := s.mapper.Quantize(x / GridScale)
			if !s.mapper.DemapInto(inter[i*nbpsc:(i+1)*nbpsc], q) {
				return nil, fmt.Errorf("core: %v demap: point (%g,%g) off grid", s.mcs.Modulation, real(q), imag(q))
			}
		}
		s.il.DeinterleaveInto(coded[k*s.mcs.NCBPS:(k+1)*s.mcs.NCBPS], inter)
	}
	return coded, nil
}

// dynamicScales is the DynamicScale candidate grid of §2.5.
var dynamicScales = []float64{0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65}

// codedBitWeights returns the memoized CodedBitWeights for this
// synthesizer's interleaver and modulation. The result is shared across
// calls and must be treated as read-only.
func (s *Synthesizer) codedBitWeights(offsetHz float64, nsym int) []float64 {
	key := pilotKey{nsym: nsym, offset: offsetHz}
	if w, ok := s.weightsCache[key]; ok {
		return w
	}
	if s.weightsCache == nil {
		s.weightsCache = make(map[pilotKey][]float64)
	}
	w := CodedBitWeights(s.il, s.mcs.Modulation, offsetHz, nsym)
	s.weightsCache[key] = w
	return w
}

// frameLayout computes the PSDU length and pad for a symbol count: the
// data field is SERVICE(16) + PSDU + tail(6) + pad, all pinned except the
// PSDU (§2.8 — SERVICE and pad are fixed by the scrambler seed, the tail
// is zeroed by the chip after scrambling).
func (s *Synthesizer) frameLayout(nsym int) (psduLen, pad int) {
	total := nsym * s.mcs.NDBPS
	psduLen = (total - wifi.ServiceBits - wifi.TailBits) / 8
	pad = total - wifi.ServiceBits - wifi.TailBits - 8*psduLen
	return psduLen, pad
}

// invert runs the configured FEC inversion over the coded targets and
// returns the scrambled-domain data bits.
func (s *Synthesizer) invert(coded []byte, weights []float64, nsym int) ([]byte, error) {
	total := nsym * s.mcs.NDBPS
	_, pad := s.frameLayout(nsym)
	seq := wifi.NewScrambler(s.opts.ScramblerSeed).Sequence(total)
	prefix := seq[:wifi.ServiceBits]
	suffix := make([]byte, wifi.TailBits+pad)
	copy(suffix[wifi.TailBits:], seq[total-pad:]) // pad pinned to scrambler stream; tail zero

	if s.opts.Mode == RealTime {
		res, err := viterbi.RealTimeInvertWeighted(coded,
			viterbi.RTWeights{W: weights, ImportantMin: WeightImportant, Obs: s.vmet}, prefix, suffix)
		if err != nil {
			return nil, err
		}
		return res.Info, nil
	}

	mother, erased, err := wifi.Depuncture(coded, s.mcs.Rate, total)
	if err != nil {
		return nil, err
	}
	mw := MotherWeights(weights, erased)
	return viterbi.Decode(viterbi.Input{Bits: mother, Weight: mw, PinnedPrefix: prefix, PinnedSuffix: suffix, Obs: s.vmet})
}

// synthPass holds one open-loop synthesis result.
type synthPass struct {
	data     []byte       // scrambled-domain data bits
	coded    []byte       // coded-bit targets
	reCoded  []byte       // data re-encoded: the coded bits actually sent
	dataWave []complex128 // modulated data field (no preamble)
	flips    int
	impFlips int
	timings  Timings
}

// synthOnce runs the open-loop pipeline of §2.3–2.8 for a target phase.
// The three pipeline stages are timed through obs spans — the measured
// durations fill synthPass.timings (and so Result.Timings) whether or
// not a registry is attached; with one, the same durations land in the
// bluefi_core_stage_seconds histograms, keeping the two views in exact
// agreement.
func (s *Synthesizer) synthOnce(ctx context.Context, target []float64, nsym int, offsetHz float64) (*synthPass, error) {
	_, spIQ := obs.StartSpan(ctx, "core.iqgen")
	thetaHat, err := DesignCP(target, wifi.ShortGI)
	dIQGen := spIQ.End()
	if err != nil {
		return nil, err
	}
	_, spFFT := obs.StartSpan(ctx, "core.fftqam")
	coded, err := s.fitSymbols(thetaHat, nsym, offsetHz)
	dFFTQAM := spFFT.End()
	if err != nil {
		return nil, err
	}
	_, spFEC := obs.StartSpan(ctx, "fec.invert", obs.L("mode", s.opts.Mode.String()))
	weights := s.codedBitWeights(offsetHz, nsym)
	data, err := s.invert(coded, weights, nsym)
	dFEC := spFEC.End()
	if err != nil {
		return nil, err
	}
	s.met.observePass(dIQGen, dFFTQAM, dFEC)

	p := &synthPass{data: data, coded: coded, reCoded: wifi.EncodeRate(data, s.mcs.Rate)}
	for i := range coded {
		if p.reCoded[i] != coded[i] {
			p.flips++
			if weights[i] >= WeightImportant {
				p.impFlips++
			}
		}
	}
	if !s.opts.PSDUOnly {
		symbols, err := s.tx.SymbolsFromScrambledBits(data)
		if err != nil {
			return nil, err
		}
		p.dataWave, err = s.mod.Modulate(symbols)
		if err != nil {
			return nil, err
		}
	}
	p.timings = Timings{IQGen: dIQGen, FFTQAM: dFFTQAM, FEC: dFEC}
	return p, nil
}

func cmplxPhase(v complex128) float64 { return math.Atan2(imag(v), real(v)) }

// precompensate builds search candidate k's synthesis target from its
// laid-out phase θ: θ less the damped CP-design phase error of k's lead
// group, less the pilots' predicted perturbation. With neither
// correction enabled the target is θ itself.
func (s *Synthesizer) precompensate(sh *searchShared, k int, theta []float64, nsym int) ([]float64, error) {
	if !s.opts.CPPrecompensation && !s.opts.PilotPrecompensation {
		return theta, nil
	}
	target := make([]float64, len(theta))
	if s.opts.CPPrecompensation {
		dphi, err := s.cpPhaseError(sh, k, theta)
		if err != nil {
			return nil, err
		}
		for n := range target {
			target[n] = theta[n] - cpBeta*dphi[n]
		}
	} else {
		copy(target, theta)
	}
	if s.opts.PilotPrecompensation {
		if err := s.precompensatePilots(theta, target, nsym, sh.plan.OffsetHz); err != nil {
			return nil, err
		}
	}
	return target, nil
}

// precompensatePilots subtracts, in place, the pilots' predicted in-band
// phase perturbation from the target phase. The pilot waveform is fixed
// by the standard (tones at ±7, ±21 with the known polarity sequence), so
// its interference with the Bluetooth signal through any reasonable
// channel filter is deterministic: for a small additive interferer p on
// a unit-modulus signal s = a·e^{jθ}, the received phase error is
// Im(p·e^{−jθ})/a. Pre-rotating the target by its negative cancels the
// perturbation at the receiver.
func (s *Synthesizer) precompensatePilots(theta, target []float64, nsym int, offsetHz float64) error {
	if s.pilotIBCache == nil {
		s.pilotIBCache = make(map[pilotKey][]complex128)
	}
	if pIB, ok := s.pilotIBCache[pilotKey{nsym, offsetHz}]; ok {
		s.applyPilotCorrection(theta, target, pIB)
		return nil
	}
	// Pilot-only symbols in grid units, modulated like the data field.
	pilotAmp := wifi.PilotAmplitude(s.mcs.Modulation)
	symbols := make([][]complex128, nsym)
	empty := make([]complex128, len(wifi.HTDataSubcarriers))
	for k := 0; k < nsym; k++ {
		sym, err := wifi.BuildSymbol(empty, wifi.DataPolarityBase+k, pilotAmp)
		if err != nil {
			return err
		}
		symbols[k] = sym
	}
	pWave, err := s.mod.Modulate(symbols)
	if err != nil {
		return err
	}
	// In-band pilot component at the Bluetooth channel.
	p := make([]complex128, len(theta))
	copy(p, pWave[:len(theta)])
	dsp.Mix(p, -offsetHz, wifi.SampleRate, 0)
	pIB := s.channelFIR.Apply(p)
	dsp.Mix(pIB, +offsetHz, wifi.SampleRate, 0)
	s.pilotIBCache[pilotKey{nsym, offsetHz}] = pIB
	s.applyPilotCorrection(theta, target, pIB)
	return nil
}

// applyPilotCorrection subtracts the pilots' first-order phase
// perturbation from the target.
func (s *Synthesizer) applyPilotCorrection(theta, target []float64, pIB []complex128) {
	// Transmitted in-band signal amplitude in the same grid units.
	a := s.opts.ScaleFactor / GridScale
	for n := range target {
		sin, cos := math.Sincos(theta[n])
		dphi := (imag(pIB[n])*cos - real(pIB[n])*sin) / a
		// The small-interferer approximation breaks if |p| approaches a.
		if dphi > 0.5 {
			dphi = 0.5
		} else if dphi < -0.5 {
			dphi = -0.5
		}
		target[n] -= dphi
	}
}

// The CP correction subtracts cpBeta·Δφ, Δφ clipped to ±cpClip: damped,
// because the CP construction re-applies to the warped target, and
// clipped, because glitch regions exceed the first-order model.
const (
	cpBeta = 0.6
	cpClip = 0.2
)

// cpPhaseError returns the clipped CP-design phase error Δφ of search
// candidate k's lead group, computing it on the group's first request.
// DesignCP only copies samples, so it commutes with a constant rotation
// r; both waveforms the correction compares then carry the same e^{jr},
// the channel filter is linear, and r cancels in their phase difference.
// Every rotation of a lead group therefore shares the Δφ of its
// rotation-0 layout. theta is k's own layout, used as is when k is a
// rotation-0 candidate and rebuilt unrotated otherwise.
func (s *Synthesizer) cpPhaseError(sh *searchShared, k int, theta []float64) ([]float64, error) {
	g := k / len(searchRotations)
	l := &sh.leads[g]
	l.once.Do(func() {
		unrotated := theta
		if searchRotations[k%len(searchRotations)] != 0 {
			unrotated, _, _ = s.layoutPhase(sh.pkt, sh.plan.OffsetHz, searchLeads[g], 0)
		}
		thetaHat, err := DesignCP(unrotated, wifi.ShortGI)
		if err != nil {
			l.err = err
			return
		}
		if s.opts.PSDUOnly {
			l.dphi = s.cpPhaseErrorSparse(unrotated, thetaHat, sh.plan.OffsetHz)
		} else {
			l.dphi = s.cpPhaseErrorExact(unrotated, thetaHat, sh.plan.OffsetHz)
		}
	})
	return l.dphi, l.err
}

// cpPhaseErrorExact is the waveform path's CP phase error: the in-band
// phase difference between the CP-designed and ideal waveforms through
// the nominal channel filter. It is structural — no quantization
// involved — so subtracting it pre-cancels most of the in-band residue
// the paper's §2.4 design leaves. Δφ overwrites thetaHat, which is dead
// once its waveform is built, and is returned.
func (s *Synthesizer) cpPhaseErrorExact(theta, thetaHat []float64, offsetHz float64) []float64 {
	a := dsp.GetComplex(len(theta))
	b := dsp.GetComplex(len(thetaHat))
	aIB := dsp.GetComplex(len(theta))
	bIB := dsp.GetComplex(len(thetaHat))
	defer func() {
		dsp.PutComplex(a)
		dsp.PutComplex(b)
		dsp.PutComplex(aIB)
		dsp.PutComplex(bIB)
	}()
	dsp.PhaseToIQInto(a, theta, 1)
	dsp.PhaseToIQInto(b, thetaHat, 1)
	dsp.Mix(a, -offsetHz, wifi.SampleRate, 0)
	dsp.Mix(b, -offsetHz, wifi.SampleRate, 0)
	s.channelFIR.ApplyInto(aIB, a)
	s.channelFIR.ApplyInto(bIB, b)
	dphi := thetaHat
	for n := range dphi {
		var d float64
		if aIB[n] != 0 && bIB[n] != 0 {
			d = dsp.WrapAngle(cmplxPhase(bIB[n]) - cmplxPhase(aIB[n]))
		}
		dphi[n] = max(-cpClip, min(cpClip, d))
	}
	return dphi
}

// cpPhaseErrorSparse is the PSDU-only hot path's first-order CP phase
// error. The difference e^{jθ̂}−e^{jθ} is nonzero only at the ≈9
// corrupted samples per 72-sample symbol, so its in-band component comes
// from a sparse convolution with the channel-filter taps — an order of
// magnitude cheaper than filtering both full waveforms. To first order
// the received phase error is Im(d_ib·e^{−jθ}) (the filtered ideal
// signal has ≈unit amplitude and phase θ in-band). Like the exact path,
// it returns Δφ in thetaHat's storage.
func (s *Synthesizer) cpPhaseErrorSparse(theta, thetaHat []float64, offsetHz float64) []float64 {
	n := len(theta)
	dIB := make([]complex128, n)
	taps := s.channelFIR.Taps
	delay := s.channelFIR.GroupDelay()
	mixStep := -2 * math.Pi * offsetHz / wifi.SampleRate
	for i := 0; i < n; i++ {
		if dsp.WrapAngle(thetaHat[i]-theta[i]) == 0 {
			continue
		}
		sinH, cosH := math.Sincos(thetaHat[i])
		sinT, cosT := math.Sincos(theta[i])
		d := complex(cosH-cosT, sinH-sinT)
		// Mix to baseband before filtering (phase reference at index 0).
		sm, cm := math.Sincos(mixStep * float64(i))
		d *= complex(cm, sm)
		// Scatter through the filter: output j receives taps[k]·d at
		// j = i − k + delay (delay-compensated convolution).
		for k, t := range taps {
			j := i - k + delay
			if j < 0 || j >= n {
				continue
			}
			dIB[j] += complex(t, 0) * d
		}
	}
	dphi := thetaHat
	for i := range dphi {
		// Mix back up and project onto the phase direction.
		sm, cm := math.Sincos(-mixStep * float64(i))
		d := dIB[i] * complex(cm, sm)
		sinT, cosT := math.Sincos(theta[i])
		dphi[i] = max(-cpClip, min(cpClip, imag(d)*cosT-real(d)*sinT))
	}
	return dphi
}

// Synthesize converts Bluetooth air bits at carrier frequency btMHz into
// a WiFi PSDU, choosing the best covering WiFi channel unless the options
// pin one (then the pinned channel must cover btMHz). The rehearsal
// search treats the packet as unprotected by FEC — right for BLE; BR
// packets go through SynthesizeFEC.
func (s *Synthesizer) Synthesize(airBits []byte, btMHz float64) (*Result, error) {
	return s.SynthesizeFEC(airBits, btMHz, nil)
}

// SynthesizeFEC is Synthesize for a packet whose air bits the FEC layout
// protects (bt.Packet.FECLayout): the rehearsal search stops at the
// first candidate whose mismatches every block's code corrects. A nil
// layout is Synthesize.
func (s *Synthesizer) SynthesizeFEC(airBits []byte, btMHz float64, layout bt.FECLayout) (*Result, error) {
	if len(airBits) == 0 {
		return nil, fmt.Errorf("core: no air bits")
	}
	if err := s.opts.Faults.SynthesisError(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	g := s.opts.GFSK
	g.CenterOffset = 0 // baseband; the offset is mixed in below
	pkt, err := g.PhaseSignal(airBits)
	if err != nil {
		return nil, err
	}
	if layout != nil {
		// The rehearsal counts bits from the start of the trajectory,
		// which opens with the transmit pad.
		pad := g.PadBits
		layout = append(bt.FECLayout(nil), layout...)
		for i := range layout {
			layout[i].Start += pad
		}
	}
	return s.synthesize(pkt, btMHz, layout)
}

// SynthesizePhase converts an arbitrary baseband Bluetooth phase
// trajectory (radians at 20 Msps, carrier at 0 Hz) into a WiFi PSDU —
// the entry point for modulations beyond plain GFSK, such as the EDR
// DPSK payloads of §5.3. The trajectory should include the transmit
// pads; PhaseRMSE and GFSKStart treat the whole trajectory as the packet.
func (s *Synthesizer) SynthesizePhase(basebandPhase []float64, btMHz float64) (*Result, error) {
	return s.synthesize(basebandPhase, btMHz, nil)
}

// synthesize is the common entry point behind the telemetry span: the
// rehearsal search when configured, else search candidate 0 alone.
// layout is in rehearsed-bit coordinates.
func (s *Synthesizer) synthesize(basebandPhase []float64, btMHz float64, layout bt.FECLayout) (*Result, error) {
	if len(basebandPhase) == 0 {
		return nil, fmt.Errorf("core: empty phase trajectory")
	}
	plan, err := PlanForChannel(btMHz, s.opts.WiFiChannel)
	if err != nil {
		return nil, err
	}
	sh := &searchShared{pkt: basebandPhase, plan: plan}
	ctx, sp := obs.StartSpan(s.obsCtx, "core.synth", obs.L("mode", s.opts.Mode.String()))
	var res *Result
	if s.opts.PhaseSearch && !s.opts.PSDUOnly {
		res, err = s.search(ctx, sh, layout)
	} else {
		res, err = s.synthesizeCandidate(ctx, sh, 0)
		if err == nil {
			res.RehearsalMismatches, res.RehearsalDecodes = -1, true
		}
	}
	if err == nil {
		err = s.finish(res, len(basebandPhase))
	}
	d := sp.End()
	if err != nil {
		return nil, err
	}
	s.met.observeSynth(d, res.RehearsalMismatches)
	return res, nil
}

// finish completes the result SynthesizePhase returns: the framed
// Waveform (the preamble, when configured, ahead of the data field) and
// the in-band PhaseRMSE over the packet span. Search candidates are
// scored on the data field alone, so only the returned one pays for
// framing and fidelity. A PSDUOnly result has no data field and stays
// without both.
func (s *Synthesizer) finish(res *Result, pktLen int) error {
	target := res.targetPhase
	res.targetPhase = nil // callers may keep the result; they never need it
	if res.dataWave == nil {
		return nil
	}
	waveform, err := s.tx.Frame(res.dataWave, len(res.PSDU))
	if err != nil {
		return err
	}
	lead := res.GFSKStart
	if lead+pktLen <= len(res.dataWave) {
		// The ideal waveform — the offset-mixed target phase itself — is
		// only realized here, off the PSDUOnly hot path.
		ideal := dsp.PhaseToIQ(target[lead:lead+pktLen], 1)
		res.PhaseRMSE = s.inbandPhaseRMSE(ideal, res.dataWave[lead:lead+pktLen], res.Plan.OffsetHz)
	}
	res.Waveform, res.dataWave = waveform, nil
	return nil
}

// rehearse demodulates search candidate k's predicted waveform over the
// packet region with the actual receiver implementation (noise-free) and
// compares bit decisions against the ideal target waveform's —
// synthesis-time reception rehearsal, cf. Recitation [39].
func (s *Synthesizer) rehearse(ctx context.Context, sh *searchShared, k int, res *Result) rehearsal {
	s.met.observeCandidate()
	if res.dataWave == nil {
		return rehearsal{}
	}
	// The preamble is a whole number of bit periods (720 = 36·20
	// samples), so bit phase within the data field is the frame's.
	start, pktLen := res.GFSKStart, len(sh.pkt)
	if start+pktLen > len(res.dataWave) {
		return rehearsal{}
	}
	_, sp := obs.StartSpan(ctx, "core.rehearse")
	defer func() { s.met.observeRehearse(sp.End()) }()
	if s.rehearseRx == nil {
		rcv, err := btrx.NewReceiver(btrx.Profile{Name: "rehearsal"}, sh.plan.OffsetHz, bt.Device{})
		if err != nil {
			return rehearsal{}
		}
		s.rehearseRx = rcv
	}
	s.rehearseRx.ChannelOffsetHz = sh.plan.OffsetHz
	idealBits, idealAcc := s.idealRehearsal(sh, k, res)
	phase := start % 20
	predBits, predAcc := s.rehearseRx.DemodAtPhase(res.dataWave[start-phase:start+pktLen], phase)
	n := min(len(idealBits), len(predBits))
	var scale float64
	for i := 0; i < n; i++ {
		if m := math.Abs(idealAcc[i]); m > scale {
			scale = m
		}
	}
	// Only confident ideal decisions count: the carrier-only pads (and
	// GFSK zero-crossing instants at unlucky phases) have near-zero
	// integrals whose signs are meaningless.
	floor := 0.15 * scale
	r := rehearsal{margins: make([]float64, n)}
	for i := 0; i < n; i++ {
		r.margins[i] = math.Inf(1)
		if math.Abs(idealAcc[i]) < floor {
			continue
		}
		if predBits[i] != idealBits[i] {
			r.mismatches = append(r.mismatches, i)
			continue
		}
		m := math.Abs(predAcc[i])
		if scale > 0 {
			m /= scale
		}
		r.margins[i] = m
	}
	return r
}

// idealRehearsal returns the ideal waveform's bit decisions and
// integrals, demodulating them on the search's first request. The
// receiver mixes, filters linearly and discriminates arg(x[n]·x*[n−1]),
// so neither a candidate's rotation nor its lead's constant carrier
// phase reaches the decisions: every candidate shares the demodulation
// of the lead-0, rotation-0 layout — candidate 0's own target, rebuilt
// when another candidate asks first.
func (s *Synthesizer) idealRehearsal(sh *searchShared, k int, res *Result) ([]byte, []float64) {
	sh.ideal.once.Do(func() {
		theta, lead := res.targetPhase, res.GFSKStart
		if k != 0 {
			theta, lead, _ = s.layoutPhase(sh.pkt, sh.plan.OffsetHz, searchLeads[0], searchRotations[0])
		}
		pktLen := len(sh.pkt)
		ideal := dsp.GetComplex(pktLen)
		defer dsp.PutComplex(ideal)
		dsp.PhaseToIQInto(ideal, theta[lead:lead+pktLen], 1)
		sh.ideal.bits, sh.ideal.acc = s.rehearseRx.DemodAtPhase(ideal, 0)
	})
	return sh.ideal.bits, sh.ideal.acc
}

// synthesizeCandidate runs the pipeline once for search candidate k: the
// packet laid out with k's extra lead and rotation, precompensated, and
// synthesized.
func (s *Synthesizer) synthesizeCandidate(ctx context.Context, sh *searchShared, k int) (*Result, error) {
	plan := sh.plan
	theta, lead, nsym := s.layoutPhase(sh.pkt, plan.OffsetHz,
		searchLeads[k/len(searchRotations)], searchRotations[k%len(searchRotations)])
	_, spPre := obs.StartSpan(ctx, "core.precomp")
	target, err := s.precompensate(sh, k, theta, nsym)
	s.met.observePrecomp(spPre.End())
	if err != nil {
		return nil, err
	}
	pass, err := s.synthOnce(ctx, target, nsym, plan.OffsetHz)
	if err != nil {
		return nil, err
	}
	timings := pass.timings

	// Descramble and pack the PSDU.
	_, spScr := obs.StartSpan(ctx, "core.scramble")
	psduLen, _ := s.frameLayout(nsym)
	descrambled := wifi.ScrambleCopy(pass.data, s.opts.ScramblerSeed)
	psdu, err := bits.PackLSB(descrambled[wifi.ServiceBits : wifi.ServiceBits+8*psduLen])
	dScramble := spScr.End()
	if err != nil {
		return nil, err
	}
	timings.Scramble += dScramble
	s.met.observeScramble(dScramble)

	coded := pass.coded

	res := &Result{
		PSDU:           psdu,
		Plan:           plan,
		Symbols:        nsym,
		CodedBits:      len(coded),
		Flips:          pass.flips,
		ImportantFlips: pass.impFlips,
		dataWave:       pass.dataWave,
		DataStart:      s.tx.DataStart(),
		GFSKStart:      lead,
		Timings:        timings,
	}

	res.targetPhase = theta
	// Restrict the important-flip count to symbols carrying the packet.
	pktLen := len(sh.pkt)
	firstSym := lead / symbolLen
	lastSym := (lead + pktLen + symbolLen - 1) / symbolLen
	weights := s.codedBitWeights(plan.OffsetHz, nsym)
	for i := firstSym * s.mcs.NCBPS; i < lastSym*s.mcs.NCBPS && i < len(coded); i++ {
		if pass.reCoded[i] != coded[i] && weights[i] >= WeightImportant {
			res.PacketImportantFlips++
		}
	}
	return res, nil
}

// inbandPhaseRMSE compares two waveform segments after mixing to the
// Bluetooth channel and applying the nominal 600 kHz channel filter —
// the fidelity a Bluetooth receiver actually experiences.
func (s *Synthesizer) inbandPhaseRMSE(ideal, predicted []complex128, offsetHz float64) float64 {
	a := dsp.GetComplex(len(ideal))
	b := dsp.GetComplex(len(predicted))
	aIB := dsp.GetComplex(len(ideal))
	bIB := dsp.GetComplex(len(predicted))
	defer func() {
		dsp.PutComplex(a)
		dsp.PutComplex(b)
		dsp.PutComplex(aIB)
		dsp.PutComplex(bIB)
	}()
	copy(a, ideal)
	copy(b, predicted)
	dsp.Mix(a, -offsetHz, wifi.SampleRate, 0)
	dsp.Mix(b, -offsetHz, wifi.SampleRate, 0)
	s.channelFIR.ApplyInto(aIB, a)
	s.channelFIR.ApplyInto(bIB, b)
	return dsp.PhaseRMSE(aIB, bIB)
}

// PSDULenForSymbols exposes the frame layout for tests and the chip model.
func (s *Synthesizer) PSDULenForSymbols(nsym int) (psduLen, pad int) { return s.frameLayout(nsym) }
