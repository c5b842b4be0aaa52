package core

import (
	"context"
	"encoding/binary"
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

// Options configures a Synthesizer. Everything else in the pipeline is
// fixed: per-symbol OFDM windowing and the mixed-format preamble, as COTS
// chips emit them; scaleFactor and leadSymbols; and, unless PSDUOnly, the
// serving extensions beyond the paper — the dynamic §2.5 scale search,
// pilot and CP precompensation, and the rehearsal search.
type Options struct {
	// Mode selects Quality (default) or RealTime synthesis.
	Mode Mode
	// WiFiChannel is the 2.4 GHz channel the chip transmits on (1–13).
	WiFiChannel int
	// ScramblerSeed must match the chip's (fixed or predicted) seed.
	ScramblerSeed uint8
	// GFSK carries the Bluetooth modulation parameters; CenterOffset is
	// overwritten by frequency planning.
	GFSK gfsk.Config
	// SearchParallelism bounds how many rehearsal-search candidates run
	// at once. 0 bounds it by min(GOMAXPROCS, 4) (four rotations per search
	// group); 1 forces the serial search; larger values are capped at the
	// group width. The bound is an upper limit, not a reservation: the
	// synthesizer runs the first candidate on its caller's CPU and adds
	// a concurrent one only while the process has an idle CPU (fewer
	// running syntheses and search helpers than GOMAXPROCS), else it
	// searches serially. Parallel and serial searches are guaranteed to
	// select the same candidate — ties break by candidate order, not
	// completion order — so the synthesized PSDU is bit-identical either
	// way.
	SearchParallelism int
	// PSDUOnly selects the paper's §4.8 pipeline: the fixed §2.5 scale
	// factor, no rehearsal search and no predicted waveform
	// (Result.Waveform is nil and PhaseRMSE is zero). The paper's
	// pipeline emits only the PSDU; this is what the §4.8 timing
	// comparison measures and what a driver integration wants on the hot
	// path. Precompensation stays on, its CP correction on a sparse
	// first-order path.
	PSDUOnly bool
	// Telemetry, when non-nil, receives per-stage latency histograms,
	// synthesis spans and rehearsal counters (see internal/obs). The
	// instrumentation records timing and counts only — it never feeds the
	// synthesized bits — and a nil registry costs one branch per record.
	// Worker clones of the parallel search share the registry.
	Telemetry *obs.Registry
	// Faults, when non-nil, is consulted once per Synthesize call and
	// may fail it with an injected error — the chaos-test hook for
	// synthesis failure. Like Telemetry it never feeds the synthesized
	// bits: with a nil (or non-firing) injector the output is
	// bit-identical to an uninstrumented run.
	Faults *faults.Injector
}

// DefaultOptions returns the serving configuration: quality mode on
// WiFi channel 3 with the BR modulation.
func DefaultOptions() Options {
	return Options{
		Mode:          Quality,
		WiFiChannel:   3,
		ScramblerSeed: 71, // RTL8811AU's constant; AR9331 pinned to 1
		GFSK:          gfsk.BRConfig(),
	}
}

// scaleFactor is the §2.5 amplitude A applied before the FFT: 1/2 places
// two-tone splits near grid magnitude 32≈7·5. It is the scale of the
// PSDUOnly pipeline and the reference amplitude of the pilot correction.
const scaleFactor = 0.5

// leadSymbols of carrier-only padding precede the Bluetooth packet,
// keeping the pinned SERVICE-field symbol clear of it.
const leadSymbols = 2

// Timings breaks down where synthesis time goes (§4.8).
type Timings struct {
	IQGen    time.Duration // GFSK phase construction + CP design
	FFTQAM   time.Duration // per-symbol FFT and constellation fitting
	FEC      time.Duration // Viterbi or real-time inversion
	Scramble time.Duration // descrambling and PSDU packing
}

// Total sums the per-stage timings.
func (t Timings) Total() time.Duration { return t.IQGen + t.FFTQAM + t.FEC + t.Scramble }

// Add accumulates another pass's stage timings. The rehearsal search
// uses it so a searched Result reports the time of every candidate it
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
	// PSDU under the same configuration), preamble included.
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
	// Timings records the per-stage execution time. With the rehearsal
	// search it covers every candidate the search evaluated — where the packet's
	// synthesis time actually went — matching the per-candidate
	// bluefi_core_stage_seconds histograms by construction.
	Timings Timings
}

// Synthesizer converts Bluetooth air bits into WiFi PSDUs.
//
// A Synthesizer is not safe for concurrent use. The rehearsal search's
// candidate evaluation parallelizes internally (see Options.SearchParallelism): the
// synthesizer is its own first worker, and private clones, built only
// when a search first borrows an idle CPU, serve as helpers. Callers
// still treat the whole object as single-threaded; for concurrent
// multi-packet workloads, use one Synthesizer per goroutine (the root
// package's Pool does exactly that, and with every pool worker busy the
// searches run serially).
type Synthesizer struct {
	opts       Options
	ablate     ablationToggles
	mcs        wifi.MCS
	il         *wifi.Interleaver
	mapper     *wifi.Mapper
	plan       *dsp.FFTPlan
	tx         *wifi.Transmitter
	mod        *wifi.OFDMModulator
	channelFIR *dsp.FIR
	rehearseRx *btrx.Receiver

	// fitSymbols scratch: the time/frequency buffers of one symbol, the
	// interleaved bits its data subcarriers demap to, and the FFT bins
	// of the data subcarriers in band at the last offset.
	fitBody, fitX []complex128
	fitInter      []byte
	fitInband     []int

	// ibScratch is the in-band comparisons' scratch (inbandBufs), grown
	// to the longest waveform compared.
	ibScratch []complex128

	// workers are the rehearsal search's helper clones, built lazily when a
	// search first runs more candidates at once than it has workers;
	// the synthesizer itself is the first worker.
	workers []*Synthesizer
	// searchPeak is the most candidates one search has run at once.
	searchPeak int

	// pilots holds the in-band pilot predictions: the process-wide
	// sharedPilots, which every synthesizer and search worker shares.
	pilots *pilotCache

	// weightsCache memoizes one symbol's Viterbi weights per offset —
	// data-independent, and rebuilt twice per packet otherwise. Entries
	// are shared read-only with the Viterbi inverters.
	weightsCache map[float64]fecWeights

	// Telemetry: met/vmet are nil when Options.Telemetry is nil (every
	// observe method then no-ops); obsCtx is the span root carrying the
	// registry, precomputed so the hot path allocates no context when
	// telemetry is disabled.
	met    *coreMetrics
	vmet   *viterbi.Metrics
	obsCtx context.Context
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
		Windowing:     true,
		Preamble:      true,
	})
	if err != nil {
		return nil, err
	}
	mod, err := wifi.NewOFDMModulator(wifi.ShortGI, true)
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
		channelFIR: channelFIR, pilots: sharedPilots}
	s.fitBody = make([]complex128, wifi.FFTSize)
	s.fitX = make([]complex128, wifi.FFTSize)
	s.fitInter = make([]byte, mcs.NCBPS)
	s.fitInband = make([]int, 0, len(wifi.HTDataSubcarriers))
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
	lead, nsym = frameSymbols(len(pkt), extraLead)
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

// frameSymbols returns the lead (in samples) and the symbol count of a
// packet of pktLen samples laid out with extraLead extra lead symbols.
func frameSymbols(pktLen, extraLead int) (lead, nsym int) {
	lead = (leadSymbols + extraLead) * symbolLen
	total := lead + pktLen + symbolLen // one tail symbol of slack
	return lead, (total + symbolLen - 1) / symbolLen
}

// fitSymbols converts the CP-designed phase signal into quantized
// frequency-domain data points and the coded-bit targets they demap to.
// offsetHz locates the Bluetooth band the scale search fits. Each symbol
// takes one FFT X of its unit-modulus body; the DFT is linear, so a trial
// scale A's spectrum FFT(A·x) is A·X, formed bin by bin. Each trial scale
// is scored on its in-band bins alone, and only the winner's data
// subcarriers are quantized and demapped.
//
// A·X and FFT(A·x) round differently unless A is a power of two. The
// fixed PSDUOnly scale 1/2 is one, so that pipeline is bit-exact with a
// per-scale FFT by construction. The serving grid is not: there the two
// differ by a few ulps of each bin, far below the distance of any chosen
// point from a QAM decision boundary or of any residue from the next
// scale's, which TestFitSymbolsMatchesPerScaleFFT measures.
func (s *Synthesizer) fitSymbols(thetaHat []float64, nsym int, offsetHz float64) (coded []byte, err error) {
	nbpsc := s.mcs.Modulation.BitsPerSymbol()
	coded = make([]byte, nsym*s.mcs.NCBPS)
	body, X, inter := s.fitBody, s.fitX, s.fitInter
	single := [1]float64{scaleFactor}
	scales := single[:]
	if !s.opts.PSDUOnly && !s.ablate.fixedScale {
		scales = dynamicScales
	}
	// Only the Bluetooth-band fit matters: out-of-band residue is
	// filtered at the receiver, and the scale search should not chase it.
	inband := s.fitInband[:0]
	for _, sub := range wifi.HTDataSubcarriers {
		if SubcarrierWeight(sub, offsetHz) >= WeightAdjacent {
			inband = append(inband, dsp.SubcarrierBin(sub, wifi.FFTSize))
		}
	}
	for k := 0; k < nsym; k++ {
		base := k*symbolLen + wifi.ShortGI
		for n := range body {
			sin, cos := math.Sincos(thetaHat[base+n])
			body[n] = complex(cos, sin)
		}
		s.plan.ForwardInto(X, body)
		bestResidue, bestA := math.Inf(1), 0.0
		for _, A := range scales {
			residue := 0.0
			for _, b := range inband {
				v := scaleBin(A, X[b]) / GridScale
				d := v - s.mapper.Quantize(v)
				residue += real(d)*real(d) + imag(d)*imag(d)
			}
			if residue /= A * A; residue < bestResidue {
				bestResidue, bestA = residue, A
			}
		}
		if math.IsInf(bestResidue, 1) {
			return nil, fmt.Errorf("core: symbol %d: no trial scale has a finite residue", k)
		}
		for i, sub := range wifi.HTDataSubcarriers {
			q := s.mapper.Quantize(scaleBin(bestA, X[dsp.SubcarrierBin(sub, wifi.FFTSize)]) / GridScale)
			if !s.mapper.DemapInto(inter[i*nbpsc:(i+1)*nbpsc], q) {
				return nil, fmt.Errorf("core: %v demap: point (%g,%g) off grid", s.mcs.Modulation, real(q), imag(q))
			}
		}
		s.il.DeinterleaveInto(coded[k*s.mcs.NCBPS:(k+1)*s.mcs.NCBPS], inter)
	}
	return coded, nil
}

// scaleBin is bin x of the unit-modulus spectrum scaled by trial scale A:
// the bin FFT(A·x) holds up to rounding.
func scaleBin(A float64, x complex128) complex128 {
	return complex(A*real(x), A*imag(x))
}

// dynamicScales is the candidate grid of the per-symbol scale search:
// the §2.5 dynamic scaling the paper found "negligible benefit,
// significantly higher complexity" on its hardware receivers. Against
// this repository's simulated discriminator it is decisive together
// with the rehearsal search, so every pipeline but PSDUOnly runs it.
var dynamicScales = []float64{0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65}

// fecWeights is one OFDM symbol's Viterbi weights at one offset, a
// period the inverters walk over the whole frame: the punctured-domain
// CodedBitWeights and, in Quality, their mother-code expansion. The
// puncturing period divides each symbol's mother bits (520 at rate 5/6),
// so the mother weights repeat every symbol too.
type fecWeights struct {
	coded  []float64
	mother []float64
}

// codedBitWeights returns the memoized weights for this synthesizer's
// interleaver, modulation and mode. They are shared across calls and
// must be treated as read-only.
func (s *Synthesizer) codedBitWeights(offsetHz float64) (fecWeights, error) {
	if w, ok := s.weightsCache[offsetHz]; ok {
		return w, nil
	}
	w := fecWeights{coded: CodedBitWeights(s.il, s.mcs.Modulation, offsetHz)}
	if s.opts.Mode != RealTime {
		_, erased, err := wifi.Depuncture(make([]byte, s.mcs.NCBPS), s.mcs.Rate, s.mcs.NDBPS)
		if err != nil {
			return fecWeights{}, err
		}
		w.mother = MotherWeights(w.coded, erased)
	}
	if s.weightsCache == nil {
		s.weightsCache = make(map[float64]fecWeights)
	}
	s.weightsCache[offsetHz] = w
	return w, nil
}

// countFlips counts the coded bits in [from, to) that re-encoding
// changed, and how many of those carry an important weight; weights is
// one symbol's period. Flips are a handful per frame, so it compares
// eight bytes at a time and looks at single bytes only inside a word
// that differs.
func countFlips(coded, reCoded []byte, weights []float64, from, to int) (flips, important int) {
	i := from
	for ; i+8 <= to; i += 8 {
		if binary.LittleEndian.Uint64(coded[i:]) != binary.LittleEndian.Uint64(reCoded[i:]) {
			f, imp := countByteFlips(coded, reCoded, weights, i, i+8)
			flips, important = flips+f, important+imp
		}
	}
	f, imp := countByteFlips(coded, reCoded, weights, i, to)
	return flips + f, important + imp
}

// countByteFlips is countFlips one byte at a time.
func countByteFlips(coded, reCoded []byte, weights []float64, from, to int) (flips, important int) {
	for i := from; i < to; i++ {
		if reCoded[i] != coded[i] {
			flips++
			if weights[i%len(weights)] >= WeightImportant {
				important++
			}
		}
	}
	return flips, important
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
func (s *Synthesizer) invert(coded []byte, weights fecWeights, nsym int) ([]byte, error) {
	total := nsym * s.mcs.NDBPS
	_, pad := s.frameLayout(nsym)
	seq := wifi.NewScrambler(s.opts.ScramblerSeed).Sequence(total)
	prefix := seq[:wifi.ServiceBits]
	suffix := make([]byte, wifi.TailBits+pad)
	copy(suffix[wifi.TailBits:], seq[total-pad:]) // pad pinned to scrambler stream; tail zero

	if s.opts.Mode == RealTime {
		res, err := viterbi.RealTimeInvertWeighted(coded,
			viterbi.RTWeights{W: weights.coded, ImportantMin: WeightImportant, Obs: s.vmet}, prefix, suffix)
		if err != nil {
			return nil, err
		}
		return res.Info, nil
	}

	mother, _, err := wifi.Depuncture(coded, s.mcs.Rate, total)
	if err != nil {
		return nil, err
	}
	return viterbi.Decode(viterbi.Input{Bits: mother, Weight: weights.mother, PinnedPrefix: prefix, PinnedSuffix: suffix, Obs: s.vmet})
}

// synthPass holds one open-loop synthesis result.
type synthPass struct {
	data     []byte       // scrambled-domain data bits
	coded    []byte       // coded-bit targets
	reCoded  []byte       // data re-encoded: the coded bits actually sent
	dataWave []complex128 // modulated data field (no preamble)
	weights  []float64    // one symbol's coded-bit weights
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
	weights, err := s.codedBitWeights(offsetHz)
	var data []byte
	if err == nil {
		data, err = s.invert(coded, weights, nsym)
	}
	dFEC := spFEC.End()
	if err != nil {
		return nil, err
	}
	s.met.observePass(dIQGen, dFFTQAM, dFEC)

	p := &synthPass{data: data, coded: coded, reCoded: wifi.EncodeRate(data, s.mcs.Rate), weights: weights.coded}
	p.flips, p.impFlips = countFlips(coded, p.reCoded, weights.coded, 0, len(coded))
	if !s.opts.PSDUOnly {
		symbols, err := s.tx.SymbolsFromCoded(p.reCoded)
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
// group, less the pilots' predicted perturbation. Both corrections are
// extensions beyond the paper: the CP corruption and the pilot waveform
// are structural and known before any quantization, so they cancel
// cleanly to first order. Without them (the ablation) the target is θ
// itself.
func (s *Synthesizer) precompensate(sh *searchShared, k int, theta []float64, nsym int) ([]float64, error) {
	if s.ablate.noPrecomp {
		return theta, nil
	}
	dphi, err := s.cpPhaseError(sh, k, theta)
	if err != nil {
		return nil, err
	}
	target := make([]float64, len(theta))
	for n := range target {
		target[n] = theta[n] - cpBeta*dphi[n]
	}
	if err := s.precompensatePilots(theta, target, nsym, sh.plan.OffsetHz); err != nil {
		return nil, err
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
	pIB, err := s.pilotInband(nsym, offsetHz)
	if err != nil {
		return err
	}
	s.applyPilotCorrection(theta, target, pIB)
	return nil
}

// applyPilotCorrection subtracts the pilots' first-order phase
// perturbation from the target.
func (s *Synthesizer) applyPilotCorrection(theta, target []float64, pIB []complex128) {
	// Transmitted in-band signal amplitude in the same grid units.
	a := scaleFactor / GridScale
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
			l.dphi = s.cpPhaseErrorExact(unrotated, thetaHat, sh.rotations())
		}
	})
	return l.dphi, l.err
}

// cpPhaseErrorExact is the waveform path's CP phase error: the in-band
// phase difference between the CP-designed and ideal waveforms through
// the nominal channel filter. It is structural — no quantization
// involved — so subtracting it pre-cancels most of the in-band residue
// the paper's §2.4 design leaves. thetaHat is dead once its waveform is
// built: it first holds that waveform's in-band phase (NaN where the
// filter output is 0), then Δφ, which is returned. rot is the search's
// mix-down table (searchShared.rotations).
func (s *Synthesizer) cpPhaseErrorExact(theta, thetaHat []float64, rot []complex128) []float64 {
	x, ib := s.inbandBufs(len(theta))
	dsp.PhaseToIQInto(x, thetaHat, 1)
	s.inband(ib, x, rot)
	dphi := thetaHat
	for n, v := range ib {
		dphi[n] = math.NaN()
		if v != 0 {
			dphi[n] = cmplxPhase(v)
		}
	}
	dsp.PhaseToIQInto(x, theta, 1)
	s.inband(ib, x, rot)
	for n, v := range ib {
		var d float64
		if v != 0 && !math.IsNaN(dphi[n]) {
			d = dsp.WrapAngle(dphi[n] - cmplxPhase(v))
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
// rehearsal search, or search candidate 0 alone for PSDUOnly.
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
	busySlots.Add(1) // the caller's own CPU; search helpers borrow only idle ones
	defer busySlots.Add(-1)
	ctx, sp := obs.StartSpan(s.obsCtx, "core.synth", obs.L("mode", s.opts.Mode.String()))
	var res *Result
	if !s.opts.PSDUOnly {
		res, err = s.search(ctx, sh, layout)
	} else {
		res, err = s.synthesizeCandidate(ctx, sh, 0)
		if err == nil {
			res.RehearsalMismatches, res.RehearsalDecodes = -1, true
		}
	}
	if err == nil {
		err = s.finish(res, sh)
	}
	d := sp.End()
	if err != nil {
		return nil, err
	}
	s.met.observeSynth(d, res.RehearsalMismatches)
	return res, nil
}

// finish completes the result SynthesizePhase returns: the framed
// Waveform (the preamble ahead of the data field) and
// the in-band PhaseRMSE over the packet span. Search candidates are
// scored on the data field alone, so only the returned one pays for
// framing and fidelity. A PSDUOnly result has no data field and stays
// without both.
func (s *Synthesizer) finish(res *Result, sh *searchShared) error {
	target := res.targetPhase
	res.targetPhase = nil // callers may keep the result; they never need it
	if res.dataWave == nil {
		return nil
	}
	waveform, err := s.tx.Frame(res.dataWave, len(res.PSDU))
	if err != nil {
		return err
	}
	lead, pktLen := res.GFSKStart, len(sh.pkt)
	if lead+pktLen <= len(res.dataWave) {
		// The ideal waveform — the offset-mixed target phase itself — is
		// only realized here, off the PSDUOnly hot path. Frame copied the
		// data field behind the preamble, so the comparison may mix the
		// data field in place.
		res.PhaseRMSE = s.inbandPhaseRMSE(target[lead:lead+pktLen], res.dataWave[lead:lead+pktLen], sh.rotations())
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
		// No channel offset: DemodAtPhase mixes by the search's table.
		rcv, err := btrx.NewReceiver(btrx.Profile{Name: "rehearsal"}, 0, bt.Device{})
		if err != nil {
			return rehearsal{}
		}
		s.rehearseRx = rcv
	}
	idealBits, idealAcc := s.idealRehearsal(sh, k, res)
	phase := start % 20
	predBits, predAcc := s.rehearseRx.DemodAtPhase(res.dataWave[start-phase:start+pktLen], phase, sh.rotations())
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
		ideal, _ := s.inbandBufs(len(sh.pkt))
		dsp.PhaseToIQInto(ideal, theta[lead:lead+len(ideal)], 1)
		sh.ideal.bits, sh.ideal.acc = s.rehearseRx.DemodAtPhase(ideal, 0, sh.rotations())
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
	_, res.PacketImportantFlips = countFlips(coded, pass.reCoded, pass.weights,
		firstSym*s.mcs.NCBPS, min(lastSym*s.mcs.NCBPS, len(coded)))
	return res, nil
}

// inbandPhaseRMSE compares the ideal waveform of phase idealPhase with
// a predicted waveform segment after mixing both to the Bluetooth
// channel and applying the nominal 600 kHz channel filter — the
// fidelity a Bluetooth receiver actually experiences. predicted must be
// dead: it is mixed down in place by the mix-down table rot.
func (s *Synthesizer) inbandPhaseRMSE(idealPhase []float64, predicted, rot []complex128) float64 {
	x, ib := s.inbandBufs(len(idealPhase))
	dsp.PhaseToIQInto(x, idealPhase, 1)
	s.inband(ib, x, rot)
	s.inband(x, predicted, rot)
	return dsp.PhaseRMSE(ib, x)
}

// inbandBufs returns the two halves of the worker's in-band scratch at
// length n each: a waveform to mix down and its filtered copy. Their
// contents are undefined, and the next comparison on this worker
// overwrites them.
func (s *Synthesizer) inbandBufs(n int) (x, ib []complex128) {
	if cap(s.ibScratch) < 2*n {
		s.ibScratch = make([]complex128, 2*n)
	}
	return s.ibScratch[:n], s.ibScratch[n : 2*n]
}

// inband mixes x down to the Bluetooth channel in place by the
// mix-down table rot and filters it with the nominal channel filter into
// dst, which must not alias x.
func (s *Synthesizer) inband(dst, x, rot []complex128) {
	dsp.MixBy(x, rot)
	s.channelFIR.ApplyInto(dst, x)
}

// PSDULenForSymbols exposes the frame layout for tests and the chip model.
func (s *Synthesizer) PSDULenForSymbols(nsym int) (psduLen, pad int) { return s.frameLayout(nsym) }
