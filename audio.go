package bluefi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bluefi/internal/a2dp"
	"bluefi/internal/bt"
	"bluefi/internal/core"
	"bluefi/internal/faults"
	"bluefi/internal/obs"
	"bluefi/internal/sbc"
)

// Audio streaming (paper §4.7): SBC-encode PCM, wrap it in AVDTP/L2CAP,
// schedule baseband packets along the AFH-restricted hop sequence inside
// the WiFi channel, and synthesize each one as a WiFi frame stamped with
// its slot clock.

// AudioConfig parameterizes an audio stream.
type AudioConfig struct {
	// Device provides the link's access code and CRC context.
	Device Device
	// PacketType carries the media; DM types add the baseband 2/3 FEC
	// (default DM5, the paper's 5-slot shape).
	PacketType PacketType
	// BestChannels restricts audio to the N best-planned Bluetooth
	// channels in the WiFi channel (default 3, as in the paper).
	BestChannels int
	// SBC selects the codec configuration (default: 44.1 kHz stereo,
	// 8 subbands, 16 blocks, bitpool 35).
	SBC SBCConfig
	// FramesPerPacket overrides how many SBC frames ride in one media
	// packet (0 = fill the baseband payload). Small values shorten the
	// on-air packets — the §4.7 PER/throughput trade-off.
	FramesPerPacket int
	// Degrade, when non-nil, arms the graceful-degradation policy (see
	// DegradePolicy and DESIGN.md §9): the stream steps down SBC bitpool
	// and the AFH channel map under deadline misses, synthesis faults and
	// interference, sheds media packets above a shipped-fraction floor
	// while Shedding, and recovers with hysteresis. nil (the default)
	// keeps the fixed-quality behavior, where any synthesis error fails
	// the Send — the deterministic configuration the golden vectors use.
	Degrade *DegradePolicy
	// SlotBudget overrides the per-segment real-time deadline (0 = the
	// packet's slots, rounded up to an even count, × 625 µs). Chaos tests
	// set a generous budget so only injected latency — never host speed —
	// causes deadline misses.
	SlotBudget time.Duration
}

// SBCConfig mirrors the SBC codec parameters.
type SBCConfig struct {
	SampleRateHz int // 16000, 32000, 44100 or 48000
	Blocks       int // 4, 8, 12 or 16
	Stereo       bool
	Subbands     int // 4 or 8
	Bitpool      int // 2..250
}

func (c SBCConfig) inner() (sbc.Config, error) {
	out := sbc.Config{Blocks: c.Blocks, Subbands: c.Subbands, Bitpool: c.Bitpool, Alloc: sbc.Loudness}
	switch c.SampleRateHz {
	case 16000:
		out.Freq = sbc.Freq16k
	case 32000:
		out.Freq = sbc.Freq32k
	case 44100:
		out.Freq = sbc.Freq44k
	case 48000:
		out.Freq = sbc.Freq48k
	default:
		return out, fmt.Errorf("bluefi: unsupported sample rate %d", c.SampleRateHz)
	}
	if c.Stereo {
		out.Mode = sbc.Stereo
	} else {
		out.Mode = sbc.Mono
	}
	return out, out.Validate()
}

// AudioStream is a live A2DP session over BlueFi. Streams opened from a
// Pool synthesize the segments of each Send concurrently across the
// pool's workers; the rehearsal-gated re-slotting stays correct because
// the scheduler hands out slots atomically.
type AudioStream struct {
	syn    *Synthesizer
	pool   *Pool // nil for single-synthesizer streams
	sched  *a2dp.Scheduler
	enc    *sbc.Encoder
	sbcCfg sbc.Config
	dev    Device
	frames int // SBC frames per media packet

	// Degradation state (gov nil without AudioConfig.Degrade). ranked
	// holds every usable Bluetooth channel best-first, so the governor's
	// BestChannels target indexes a prefix; dropNext carries a Shedding
	// drop decision to the next Send.
	gov         *a2dp.Governor
	inj         *faults.Injector // nil without Options.Faults
	ranked      []int
	curBitpool  int
	curChannels int
	dropNext    bool
	segSlots    int // slots one segment occupies (even-rounded)

	// slotBudget is the real-time synthesis deadline per segment: the
	// slots the packet occupies (rounded up to the even slot the master
	// resumes on) × 625 µs — a DM1 must synthesize within its 1.25 ms
	// slot pair (§4.7). met is nil without telemetry; obsCtx carries the
	// registry for per-segment spans.
	slotBudget time.Duration
	met        *audioMetrics
	obsCtx     context.Context

	// onSlack, when non-nil, receives every segment's deadline slack —
	// the SessionManager's per-session slack export. Set once before the
	// first Send; called concurrently from pool workers, so the hook
	// must be safe for concurrent use.
	onSlack func(slack time.Duration)
}

// audioMetrics holds the audio path's telemetry handles; nil disables
// them at one branch per record.
type audioMetrics struct {
	slack *obs.Histogram
	late  *obs.Counter
}

func newAudioMetrics(r *obs.Registry) *audioMetrics {
	if r == nil {
		return nil
	}
	return &audioMetrics{
		// ±10 ms around the deadline in 1.25 ms slot-pair steps.
		slack: r.Histogram("bluefi_audio_deadline_slack_seconds",
			"slot budget minus segment synthesis time (negative = deadline missed)",
			obs.LinearBuckets(-10e-3, 1.25e-3, 17)),
		late: r.Counter("bluefi_audio_frames_late_total",
			"segments whose synthesis exceeded the slot budget"),
	}
}

func (m *audioMetrics) observeSegment(slack time.Duration) {
	if m == nil {
		return
	}
	m.slack.Observe(slack.Seconds())
	if slack < 0 {
		m.late.Inc()
	}
}

// AudioTransmission is one baseband packet of the stream, synthesized
// and ready for its time slot.
type AudioTransmission struct {
	Packet *Packet
	// Clock is the Bluetooth clock of the packet's slot; release the
	// frame at exactly that instant (the paper uses a high-resolution
	// kernel timer for this).
	Clock uint32
	// BTChannel is the AFH-mapped Bluetooth channel of the slot.
	BTChannel int
}

// NewAudioStream opens a stream on the synthesizer's WiFi channel.
func (s *Synthesizer) NewAudioStream(cfg AudioConfig) (*AudioStream, error) {
	if cfg.PacketType == 0 {
		cfg.PacketType = DM5
	}
	if cfg.BestChannels == 0 {
		cfg.BestChannels = 3
	}
	if cfg.SBC == (SBCConfig{}) {
		cfg.SBC = SBCConfig{SampleRateHz: 44100, Blocks: 16, Stereo: true, Subbands: 8, Bitpool: 35}
	}
	pt, err := cfg.PacketType.inner()
	if err != nil {
		return nil, err
	}
	sbcCfg, err := cfg.SBC.inner()
	if err != nil {
		return nil, err
	}
	center := 2407 + 5*float64(s.opts.WiFiChannel)
	ranked, err := rankedChannels(s.opts.WiFiChannel, center)
	if err != nil {
		return nil, err
	}
	if len(ranked) < cfg.BestChannels {
		return nil, fmt.Errorf("bluefi: only %d usable audio channels in WiFi channel %d", len(ranked), s.opts.WiFiChannel)
	}
	best := append([]int(nil), ranked[:cfg.BestChannels]...)
	sort.Ints(best)
	sched, err := a2dp.NewScheduler(a2dp.StreamConfig{
		Device:        bt.Device(cfg.Device),
		WiFiCenterMHz: center,
		PacketType:    pt,
		BestChannels:  best,
		Telemetry:     s.opts.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	enc, err := sbc.NewEncoder(sbcCfg)
	if err != nil {
		return nil, err
	}
	frames := cfg.FramesPerPacket
	if frames <= 0 {
		frames = a2dp.FramesPerPacket(pt, sbcCfg)
	}
	if frames < 1 {
		frames = 1 // L2CAP segmentation spreads it over several packets
	}
	adv := pt.Slots()
	if adv%2 == 1 {
		adv++
	}
	budget := cfg.SlotBudget
	if budget <= 0 {
		budget = time.Duration(adv) * 625 * time.Microsecond
	}
	a := &AudioStream{
		syn: s, sched: sched, enc: enc, sbcCfg: sbcCfg, dev: cfg.Device, frames: frames,
		inj:         s.inj,
		ranked:      ranked,
		curBitpool:  sbcCfg.Bitpool,
		curChannels: cfg.BestChannels,
		segSlots:    adv,
		slotBudget:  budget,
		met:         newAudioMetrics(s.opts.Telemetry),
		obsCtx:      obs.WithRegistry(context.Background(), s.opts.Telemetry),
	}
	if cfg.Degrade != nil {
		pc := *cfg.Degrade
		if pc.Telemetry == nil {
			pc.Telemetry = s.opts.Telemetry
		}
		a.gov = a2dp.NewGovernor(pc, sbcCfg.Bitpool, cfg.BestChannels)
	}
	return a, nil
}

// SamplesPerSend returns the PCM samples per channel one Send consumes.
func (a *AudioStream) SamplesPerSend() int { return a.frames * a.sbcCfg.SamplesPerFrame() }

// Channels returns the PCM channel count the stream expects.
func (a *AudioStream) Channels() int { return a.sbcCfg.Mode.Channels() }

// Health returns the stream's degradation state; without
// AudioConfig.Degrade it is always HealthHealthy.
func (a *AudioStream) Health() HealthState {
	if a.gov == nil {
		return HealthHealthy
	}
	return a.gov.State()
}

// Report summarizes the degradation history (zero value without
// AudioConfig.Degrade).
func (a *AudioStream) Report() DegradationReport {
	if a.gov == nil {
		return DegradationReport{}
	}
	return a.gov.Report()
}

// transientErr classifies failures the degradation policy may absorb as
// a dropped packet: injected faults and pool-infrastructure losses. Real
// synthesis errors (bad input, no covering channel) and a closed pool
// always propagate.
func transientErr(err error) bool {
	var pe *PanicError
	return faults.IsInjected(err) || errors.As(err, &pe) ||
		errors.Is(err, ErrJobTimeout) || errors.Is(err, ErrJobShed) || errors.Is(err, ErrPoolOverloaded)
}

// Send encodes one media packet's worth of PCM (pcm[channel][sample],
// exactly SamplesPerSend() samples per channel) and returns the
// synthesized baseband transmissions — one per L2CAP segment.
//
// With AudioConfig.Degrade armed, Send may return (nil, nil): the packet
// was shed — by the Shedding policy, or because a transient fault
// (injected, worker panic, timeout) lost it — and the stream remains
// usable. The governor's Report() accounts for every such drop.
func (a *AudioStream) Send(pcm [][]float64) ([]*AudioTransmission, error) {
	if len(pcm) != a.Channels() {
		return nil, fmt.Errorf("bluefi: %d PCM channels, want %d", len(pcm), a.Channels())
	}
	if a.gov != nil && a.dropNext {
		a.dropNext = false
		a.gov.Shed(a.segSlots)
		return nil, nil
	}
	spf := a.sbcCfg.SamplesPerFrame()
	frames := make([][]byte, a.frames)
	for f := range frames {
		in := make([][]float64, len(pcm))
		for ch := range pcm {
			if len(pcm[ch]) != a.SamplesPerSend() {
				return nil, fmt.Errorf("bluefi: channel %d has %d samples, want %d", ch, len(pcm[ch]), a.SamplesPerSend())
			}
			in[ch] = pcm[ch][f*spf : (f+1)*spf]
		}
		fr, err := a.enc.Encode(in)
		if err != nil {
			return nil, err
		}
		frames[f] = fr
	}
	scheduled, err := a.sched.ScheduleMedia(frames, uint32(a.SamplesPerSend()))
	if err != nil {
		return nil, err
	}
	// Injected interference dirties this packet's channel; the governor
	// sees the duty cycle as a degradation signal.
	var duty float64
	if a.gov != nil {
		if intf, on := a.inj.Interference(); on {
			duty = intf.DutyCycle
		}
	}
	out, worstSlack, err := a.synthesizeAll(scheduled)
	if a.gov == nil {
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	dec := a.gov.Observe(a2dp.Signal{
		DeadlineMiss:     worstSlack < 0,
		SynthesisFailed:  err != nil,
		InterferenceDuty: duty,
		Slots:            a.segSlots * len(scheduled),
	})
	a.applyDecision(dec)
	a.dropNext = dec.Drop
	if err != nil {
		if transientErr(err) {
			a.gov.RecordDropped(1)
			return nil, nil
		}
		return nil, err
	}
	a.gov.RecordShipped(1)
	return out, nil
}

// synthesizeAll runs every scheduled segment — across the pool when one
// is attached, serially otherwise — and reports the worst deadline slack
// and the first error.
func (a *AudioStream) synthesizeAll(scheduled []*a2dp.ScheduledPacket) ([]*AudioTransmission, time.Duration, error) {
	type seg struct {
		tx    *AudioTransmission
		slack time.Duration
	}
	worst := time.Duration(1<<62 - 1)
	if a.pool != nil {
		// Segments are independent synthesis jobs; fan them out across
		// the pool's workers. Results keep segment order.
		out := make([]*AudioTransmission, len(scheduled))
		slacks := make([]time.Duration, len(scheduled))
		errs := make([]error, len(scheduled))
		var wg sync.WaitGroup
		for i, sp := range scheduled {
			wg.Add(1)
			go func(i int, sp *a2dp.ScheduledPacket) {
				defer wg.Done()
				// The segment's slot clock is its queue deadline: the
				// pool services whichever stream's segment is closest
				// to its slot.
				res, err := poolDoDeadline(a.pool, uint64(sp.Clock), func(s *Synthesizer) (seg, error) {
					tx, slack, serr := a.synthesizeScheduled(s, sp)
					if serr != nil {
						return seg{}, serr
					}
					return seg{tx, slack}, nil
				})
				out[i], slacks[i], errs[i] = res.tx, res.slack, err
			}(i, sp)
		}
		wg.Wait()
		var first error
		for i := range out {
			if errs[i] != nil && first == nil {
				first = errs[i]
			}
			if errs[i] == nil && slacks[i] < worst {
				worst = slacks[i]
			}
		}
		if first != nil {
			return nil, worst, first
		}
		return out, worst, nil
	}
	out := make([]*AudioTransmission, 0, len(scheduled))
	for _, sp := range scheduled {
		tx, slack, err := a.synthesizeScheduled(a.syn, sp)
		if err != nil {
			return nil, worst, err
		}
		if slack < worst {
			worst = slack
		}
		out = append(out, tx)
	}
	return out, worst, nil
}

// applyDecision moves the codec and channel map to the governor's
// targets. Sample geometry (blocks × subbands) never changes, so
// SamplesPerSend stays constant across quality steps.
func (a *AudioStream) applyDecision(dec a2dp.Decision) {
	if dec.Bitpool != a.curBitpool {
		if err := a.enc.SetBitpool(dec.Bitpool); err == nil {
			a.curBitpool = dec.Bitpool
			a.sbcCfg.Bitpool = dec.Bitpool
		}
	}
	if dec.BestChannels != a.curChannels {
		k := dec.BestChannels
		if k > len(a.ranked) {
			k = len(a.ranked)
		}
		chs := append([]int(nil), a.ranked[:k]...)
		sort.Ints(chs)
		if err := a.sched.SetBest(chs); err == nil {
			a.curChannels = dec.BestChannels
		}
	}
}

// synthesizeScheduled synthesizes one scheduled segment on the given
// synthesizer with rehearsal-gated transmission: when synthesis predicts
// more bit errors than the packet's FEC can absorb, move to the next slot
// — its clock re-whitens the payload into a fresh waveform. The returned
// slack is the slot budget minus the segment's (possibly fault-inflated)
// synthesis time; negative means a live link would have missed the slot.
func (a *AudioStream) synthesizeScheduled(syn *Synthesizer, sp *a2dp.ScheduledPacket) (*AudioTransmission, time.Duration, error) {
	_, span := obs.StartSpan(a.obsCtx, "audio.segment")
	var res *core.Result
	var spent core.Timings // across re-slot attempts; reported on the winner
	for attempt := 0; ; attempt++ {
		air, err := sp.Packet.AirBits(bt.Device(a.dev))
		if err != nil {
			span.End()
			return nil, 0, err
		}
		res, err = syn.br.Synthesize(air, sp.ChannelMHz)
		if err != nil {
			span.End()
			return nil, 0, err
		}
		spent.IQGen += res.Timings.IQGen
		spent.FFTQAM += res.Timings.FFTQAM
		spent.FEC += res.Timings.FEC
		spent.Scramble += res.Timings.Scramble
		if res.RehearsalMismatches <= 4 || attempt >= 3 {
			break
		}
		sp = a.sched.Reslot(sp)
	}
	res.Timings = spent
	// Deadline slack: how much of the slot budget (packet slots × 625 µs)
	// the rehearsal-gated synthesis left unused. Negative means the frame
	// would have missed its slot on a live link. An injected latency
	// penalty inflates the charged time machine-independently.
	slack := a.slotBudget - span.End() - a.inj.LatencyPenalty(a.slotBudget)
	a.met.observeSegment(slack)
	if a.onSlack != nil {
		a.onSlack(slack)
	}
	pkt, err := syn.wrap(res, -1)
	if err != nil {
		return nil, slack, err
	}
	return &AudioTransmission{Packet: pkt, Clock: uint32(sp.Clock), BTChannel: sp.Channel}, slack, nil
}

// NewAudioStream opens an audio stream whose per-Send segment synthesis
// fans out across the pool's workers — the concurrent variant of
// Synthesizer.NewAudioStream for real-time A2DP workloads. Returns
// ErrPoolClosed on a closed pool.
func (p *Pool) NewAudioStream(cfg AudioConfig) (*AudioStream, error) {
	if p.isClosed() {
		return nil, ErrPoolClosed
	}
	a, err := p.syns[0].NewAudioStream(cfg)
	if err != nil {
		return nil, err
	}
	a.pool = p
	if p.inj != nil {
		a.inj = p.inj
	}
	return a, nil
}

// rankedChannels scores the Bluetooth channels inside the WiFi channel
// by pilot/null clearance and returns them best-first (paper §4.7: "we
// select 3 best channels to transmit audio packets"). The full ranking
// lets the degradation policy shrink to a cleanest-prefix and restore.
func rankedChannels(wifiCh int, centerMHz float64) ([]int, error) {
	type scored struct {
		ch    int
		score float64
	}
	var all []scored
	for _, btCh := range bt.ChannelsInWiFiBand(centerMHz, 0.7) {
		plan, err := core.PlanForChannel(bt.ChannelMHz(btCh), wifiCh)
		if err != nil {
			continue
		}
		all = append(all, scored{btCh, plan.Score})
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("bluefi: no usable audio channels in WiFi channel %d", wifiCh)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].ch < all[j].ch
	})
	out := make([]int, len(all))
	for i := range out {
		out[i] = all[i].ch
	}
	return out, nil
}
