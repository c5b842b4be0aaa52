package btrx

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"bluefi/internal/bits"
	"bluefi/internal/bt"
	"bluefi/internal/channel"
	"bluefi/internal/dsp"
)

// SyncErrorBudget is the default access-code correlation threshold: bit
// errors tolerated across the 72-bit BR access code (hardware correlators
// typically allow a handful). Synthesis uses it as the access code's
// correction capacity when predicting whether a packet decodes.
const SyncErrorBudget = 6

const (
	// filterHalfBandwidthHz is the channel filter cutoff; the limiter
	// caps the discriminator output at 1.2× it.
	filterHalfBandwidthHz = 500e3
	// defaultSeed drives the profile's front-end noise and RSSI jitter
	// until Reseed.
	defaultSeed = 7
)

// edrWideFilter is the DPSK payload filter: 1 Msym/s DPSK occupies more
// bandwidth than GFSK, and the narrow GFSK channel filter would smear
// symbol transitions into ISI. Its design is constant, so it is built
// once per process.
var edrWideFilter = sync.OnceValues(func() (*dsp.FIR, error) {
	return dsp.LowpassFIR(900e3, 20e6, 81)
})

// Receiver demodulates one Bluetooth channel out of a 20 Msps IQ stream
// centered on a WiFi channel.
type Receiver struct {
	// Profile selects the device model.
	Profile Profile
	// ChannelOffsetHz is the Bluetooth carrier's offset from the center
	// of the IQ stream.
	ChannelOffsetHz float64
	// Device provides LAP/UAP for BR access-code correlation and CRCs.
	Device bt.Device
	// MaxSyncErrors is the access-code correlation threshold (default
	// SyncErrorBudget).
	MaxSyncErrors int

	fir    *dsp.FIR
	rng    *rand.Rand
	spb    int
	rate   float64
	window []float64 // per-bit decision weights (matched-pulse shape)
}

// NewReceiver builds a receiver; zero-value fields get defaults.
func NewReceiver(p Profile, offsetHz float64, dev bt.Device) (*Receiver, error) {
	r := &Receiver{
		Profile:         p,
		ChannelOffsetHz: offsetHz,
		Device:          dev,
		MaxSyncErrors:   SyncErrorBudget,
		spb:             20,
		rate:            20e6,
	}
	fir, err := dsp.LowpassFIR(filterHalfBandwidthHz, r.rate, 101)
	if err != nil {
		return nil, err
	}
	r.fir = fir
	r.rng = rand.New(rand.NewSource(defaultSeed))
	// Decision window: Tukey-shaped — flat over the central half of the
	// bit, cosine-tapered at the edges. The taper suppresses BlueFi's
	// OFDM-edge corruption (which lands at bit edges in the worst
	// alignments) while the flat center keeps the rectangular window's
	// robustness for clean bits.
	r.window = make([]float64, r.spb)
	for k := range r.window {
		x := (float64(k) + 0.5) / float64(r.spb) // (0,1)
		switch {
		case x < 0.25:
			v := math.Sin(2 * math.Pi * x)
			r.window[k] = v * v
		case x > 0.75:
			v := math.Sin(2 * math.Pi * (1 - x))
			r.window[k] = v * v
		default:
			r.window[k] = 1
		}
	}
	return r, nil
}

// accAt returns the signed per-bit integrator outputs at a sample phase.
func (r *Receiver) accAt(freq []float64, phase int) []float64 {
	n := (len(freq) - phase) / r.spb
	if n <= 0 {
		return nil
	}
	acc := make([]float64, n)
	for i := range acc {
		var a float64
		base := phase + i*r.spb
		for k, w := range r.window {
			a += w * freq[base+k]
		}
		acc[i] = a
	}
	return acc
}

// baseband mixes the stream to the Bluetooth channel, applies front-end
// noise per the profile, and band-pass filters.
func (r *Receiver) baseband(iq []complex128) []complex128 {
	return r.frontEnd(dsp.Mix(slices.Clone(iq), -r.ChannelOffsetHz, r.rate))
}

// frontEnd applies front-end noise per the profile to the mixed-down
// stream, in place, and band-pass filters it.
func (r *Receiver) frontEnd(shifted []complex128) []complex128 {
	if r.Profile.NoiseFigureDB > 0 {
		// Front-end noise referenced to thermal in 20 MHz (−101 dBm),
		// raised by the noise figure.
		sigma := math.Sqrt(dsp.DBmToWatts(-101+r.Profile.NoiseFigureDB) / 2)
		for i := range shifted {
			shifted[i] += complex(sigma*r.rng.NormFloat64(), sigma*r.rng.NormFloat64())
		}
	}
	return r.fir.Apply(shifted)
}

// discriminate runs the FM discriminator with a limiter: the instantaneous
// frequency is clamped to slightly beyond the channel filter bandwidth,
// the behaviour of a limiter-discriminator GFSK detector. Phase glitches
// at OFDM symbol edges (BlueFi's residual CP corruption) show up as huge
// single-sample spikes; the limiter keeps them from dominating a bit's
// integrate-and-dump window, which is exactly why the paper can call this
// corruption "high-frequency noise … likely to be attenuated/removed by
// the band-pass filter on a Bluetooth receiver" (§2.4).
func (r *Receiver) discriminate(bb []complex128) []float64 {
	freq := dsp.Discriminate(bb)
	limit := 2 * 3.141592653589793 * filterHalfBandwidthHz * 1.2 / r.rate
	for i, f := range freq {
		if f > limit {
			freq[i] = limit
		} else if f < -limit {
			freq[i] = -limit
		}
	}
	return freq
}

// sliceBits converts filtered baseband to hard bit decisions at a given
// sample phase using integrate-and-dump over each 20-sample bit. The
// second return carries each bit's integration magnitude — the eye
// opening — used to break ties between candidate timing phases.
func (r *Receiver) sliceBits(freq []float64, phase int) ([]byte, []float64) {
	margin := r.accAt(freq, phase)
	if margin == nil {
		return nil, nil
	}
	out := decide(margin)
	for i, a := range margin {
		margin[i] = math.Abs(a)
	}
	return out, margin
}

// decide returns the hard decision (the sign) of each bit integral.
func decide(acc []float64) []byte {
	out := make([]byte, len(acc))
	for i, a := range acc {
		if a > 0 {
			out[i] = 1
		}
	}
	return out
}

// correlate finds the (phase, offset) whose sliced bits best match the
// target pattern, breaking Hamming-distance ties by the summed eye
// opening over the pattern span — the behaviour of a real correlator
// sampling at the point of maximum eye opening.
func (r *Receiver) correlate(freq []float64, target []byte) (bestErr, bestPhase, bestOff int) {
	bestErr = len(target) + 1
	bestMargin := -1.0
	for phase := 0; phase < r.spb; phase++ {
		sliced, margin := r.sliceBits(freq, phase)
		if len(sliced) < len(target) {
			continue
		}
		for off := 0; off+len(target) <= len(sliced); off++ {
			d := bits.HammingDistance(sliced[off:off+len(target)], target)
			if d > bestErr {
				continue
			}
			// Margin over the sync span plus the following payload
			// region: real receivers keep tracking symbol timing, so the
			// chosen phase should open the eye over the whole packet.
			end := off + len(target) + 256
			if end > len(margin) {
				end = len(margin)
			}
			var m float64
			for i := off; i < end; i++ {
				m += margin[i]
			}
			if d < bestErr || m > bestMargin {
				bestErr, bestPhase, bestOff, bestMargin = d, phase, off, m
			}
		}
	}
	return bestErr, bestPhase, bestOff
}

// Report is the outcome of one packet reception attempt.
type Report struct {
	Detected    bool
	Result      bt.DecodeResult
	RSSIdBm     float64
	SyncErrors  int
	SampleStart int // where the access code begins in the stream
	// Adv carries the parsed advertising PDU when ReceiveBLE decoded one
	// (nil otherwise) — the scanner reads the PDU type and addresses.
	Adv *bt.Advertisement
	// Data carries the parsed data-channel PDU from ReceiveBLEData; it
	// may be non-nil with Result.CRCError set when the header parsed but
	// the CRC failed.
	Data *bt.DataPDU
}

// Reseed re-derives the receiver's front-end noise and RSSI jitter
// source. The scanner gives every capture its own counter-derived seed
// so a parallel sweep consumes randomness identically to a serial one.
func (r *Receiver) Reseed(seed int64) {
	r.rng = rand.New(rand.NewSource(seed))
}

// ReceiveBR searches the stream for a BR/EDR packet with the receiver's
// access code and decodes it. clk is the whitening clock the transmitter
// used (known to a connected/paging receiver).
func (r *Receiver) ReceiveBR(iq []complex128, clk uint32) (Report, error) {
	ac, err := bt.AccessCode(r.Device.LAP, true)
	if err != nil {
		return Report{}, err
	}
	bb := r.baseband(iq)
	freq := r.discriminate(bb)

	bestErr, bestPhase, bestOff := r.correlate(freq, ac)
	rep := Report{SyncErrors: bestErr}
	if bestErr > r.MaxSyncErrors {
		rep.RSSIdBm = r.reportRSSI(bb)
		return rep, nil
	}
	rep.Detected = true
	rep.SampleStart = bestPhase + bestOff*r.spb
	sliced, _ := r.sliceBits(freq, bestPhase)
	stream := sliced[bestOff+len(ac):]
	rep.Result = bt.DecodeAirBits(stream, r.Device, clk)
	pktSamples := (len(ac) + 54) * r.spb // at least header span
	end := rep.SampleStart + pktSamples
	if end > len(bb) {
		end = len(bb)
	}
	rep.RSSIdBm = r.reportRSSI(bb[rep.SampleStart:end])
	return rep, nil
}

// ReceiveBLE searches for a BLE advertising packet on the given
// advertising channel index.
func (r *Receiver) ReceiveBLE(iq []complex128, advChannel int) (Report, error) {
	isAdv := false
	for _, c := range bt.AdvChannels {
		if advChannel == c {
			isAdv = true
		}
	}
	if !isAdv {
		return Report{}, fmt.Errorf("btrx: channel %d is not an advertising channel", advChannel)
	}
	// Correlation target: preamble + access address bits.
	target := bt.PreambleAA(bt.AdvAccessAddress)
	bb := r.baseband(iq)
	freq := r.discriminate(bb)

	bestErr, bestPhase, bestOff := r.correlate(freq, target)
	rep := Report{SyncErrors: bestErr}
	if bestErr > r.maxAAErrors() {
		rep.RSSIdBm = r.reportRSSI(bb)
		return rep, nil
	}
	rep.Detected = true
	rep.SampleStart = bestPhase + bestOff*r.spb
	sliced, _ := r.sliceBits(freq, bestPhase)
	adv, ok := bt.DecodeAdvertisement(sliced[bestOff+len(target):], advChannel)
	if ok {
		rep.Result = bt.DecodeResult{OK: true, Payload: adv.Data}
		rep.Adv = adv
	} else {
		rep.Result = bt.DecodeResult{CRCError: true}
	}
	end := rep.SampleStart + 376*r.spb
	if end > len(bb) {
		end = len(bb)
	}
	rep.RSSIdBm = r.reportRSSI(bb[rep.SampleStart:end])
	return rep, nil
}

// maxAAErrors is the access-address correlation threshold: stricter
// than BR sync words (32 bits vs 72).
func (r *Receiver) maxAAErrors() int {
	if r.MaxSyncErrors > 3 {
		return 3
	}
	return r.MaxSyncErrors
}

// ReceiveBLEData searches the stream for a BLE data physical channel
// PDU on a connection: aa is the access address assigned by the
// CONN_IND, dataChannel keys the whitening and crcInit seeds the
// CRC-24. A Report with Detected set and Result.CRCError records an
// access-address hit whose payload failed the CRC — the scanner counts
// those separately from clean misses.
func (r *Receiver) ReceiveBLEData(iq []complex128, aa uint32, dataChannel int, crcInit uint32) (Report, error) {
	if dataChannel < 0 || dataChannel >= bt.NumLEDataChannels {
		return Report{}, fmt.Errorf("btrx: data channel %d out of range", dataChannel)
	}
	target := bt.PreambleAA(aa)
	bb := r.baseband(iq)
	freq := r.discriminate(bb)

	bestErr, bestPhase, bestOff := r.correlate(freq, target)
	rep := Report{SyncErrors: bestErr}
	if bestErr > r.maxAAErrors() {
		rep.RSSIdBm = r.reportRSSI(bb)
		return rep, nil
	}
	rep.Detected = true
	rep.SampleStart = bestPhase + bestOff*r.spb
	sliced, _ := r.sliceBits(freq, bestPhase)
	pdu, ok := bt.DecodeDataPDU(sliced[bestOff+len(target):], dataChannel, crcInit)
	rep.Data = pdu
	if ok {
		rep.Result = bt.DecodeResult{OK: true, Payload: pdu.Payload}
	} else {
		rep.Result = bt.DecodeResult{CRCError: true}
	}
	end := rep.SampleStart + 376*r.spb
	if end > len(bb) {
		end = len(bb)
	}
	rep.RSSIdBm = r.reportRSSI(bb[rep.SampleStart:end])
	return rep, nil
}

// reportRSSI converts filtered in-band power to the device's reported
// RSSI, applying calibration offset and jitter.
func (r *Receiver) reportRSSI(bb []complex128) float64 {
	rssi := channel.MeasureRSSIDBm(bb) + r.Profile.RSSIOffsetDB
	if r.Profile.RSSIJitterDB > 0 {
		rssi += r.rng.NormFloat64() * r.Profile.RSSIJitterDB
	}
	return rssi
}

// Reporting reports whether the device still reports measurements at
// elapsed seconds t (iPhone power-save stops them after ≈110 s).
func (p Profile) Reporting(t float64) bool {
	return p.PowerSaveAfterS == 0 || t < p.PowerSaveAfterS
}

// String describes the receiver configuration.
func (r *Receiver) String() string {
	return fmt.Sprintf("%s@%+.1fMHz", r.Profile.Name, r.ChannelOffsetHz/1e6)
}

// DemodAtPhase demodulates the stream with the production slicer at a
// given sample phase and returns the bit decisions with their signed
// integration values — the synthesis-time rehearsal entry point. The
// mix-down table rot, dsp.Rotations(−offset, 20 MHz, n) for some
// n ≥ len(iq), stands in for ChannelOffsetHz, so a caller demodulating
// many streams at one offset computes the factors once; the products
// are those of mixing by the offset itself.
func (r *Receiver) DemodAtPhase(iq []complex128, phase int, rot []complex128) ([]byte, []float64) {
	bb := r.frontEnd(dsp.MixBy(slices.Clone(iq), rot))
	freq := r.discriminate(bb)
	acc := r.accAt(freq, phase)
	return decide(acc), acc
}

// ReceiveEDR searches the stream for an EDR packet: the access code and
// header travel as GFSK, the payload as DPSK. rate must match the
// transmitted packet type (the mode is negotiated via LMP on real links).
func (r *Receiver) ReceiveEDR(iq []complex128, clk uint32, rate bt.EDRRate) (Report, error) {
	ac, err := bt.AccessCode(r.Device.LAP, true)
	if err != nil {
		return Report{}, err
	}
	// One mix-down serves both paths: frontEnd adds noise to its own
	// copy in place, and the DPSK payload reads the mixed stream.
	shifted := dsp.Mix(slices.Clone(iq), -r.ChannelOffsetHz, r.rate)
	bb := r.frontEnd(slices.Clone(shifted))
	freq := r.discriminate(bb)

	bestErr, bestPhase, bestOff := r.correlate(freq, ac)
	rep := Report{SyncErrors: bestErr}
	if bestErr > r.MaxSyncErrors {
		rep.RSSIdBm = r.reportRSSI(bb)
		return rep, nil
	}
	rep.Detected = true
	rep.SampleStart = bestPhase + bestOff*r.spb

	// GFSK header: 54 whitened FEC(1/3) bits right after the access code.
	sliced, _ := r.sliceBits(freq, bestPhase)
	hdrStream := sliced[bestOff+len(ac):]
	if len(hdrStream) < 54 {
		rep.Result = bt.DecodeResult{HeaderError: true}
		return rep, nil
	}
	wh := bt.NewWhitener(clk)
	hdr := wh.Whiten(append([]byte{}, hdrStream[:54]...))
	hdr10, err := bits.MajorityDecode(hdr, 3)
	if err != nil || !bt.CheckHEC(hdr10[:10], hdr10[10:18], r.Device.UAP) {
		rep.Result = bt.DecodeResult{HeaderError: true}
		rep.RSSIdBm = r.reportRSSI(bb)
		return rep, nil
	}

	// DPSK payload: recover the unwrapped phase through the wide filter.
	wide, err := edrWideFilter()
	if err != nil {
		return Report{}, err
	}
	theta := dsp.Unwrap(dsp.Phase(wide.Apply(shifted)))
	payloadStart := rep.SampleStart + bt.EDRPayloadOffsetFromAccessCode(r.spb)
	if payloadStart >= len(theta) {
		rep.Result = bt.DecodeResult{CRCError: true}
		return rep, nil
	}
	rep.Result = bt.DecodeEDRPayload(theta, payloadStart, r.spb, rate, r.Device, clk, 54)
	end := payloadStart + 400*r.spb
	if end > len(bb) {
		end = len(bb)
	}
	rep.RSSIdBm = r.reportRSSI(bb[rep.SampleStart:end])
	return rep, nil
}
