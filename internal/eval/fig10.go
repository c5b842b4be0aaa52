package eval

import (
	"fmt"
	"math"
	"sort"

	"bluefi/internal/a2dp"
	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/channel"
	"bluefi/internal/core"
	"bluefi/internal/gfsk"
	"bluefi/internal/sbc"
	"bluefi/internal/scan"
)

// Fig. 10 — PER with 5-slot audio packets (§4.7): the A2DP stream on the
// three best Bluetooth channels of the WiFi channel, with throughput and
// goodput accounting. DM5 packets trade capacity for the baseband 2/3
// FEC, which rides out BlueFi's residual bit errors on long packets.

// AudioResult aggregates the streaming run.
type AudioResult struct {
	PerChannel     []ChannelPER
	Sent, Received int
	// ThroughputKbps is upper-layer (L2CAP payload) bits of received
	// packets over the stream duration; GoodputKbps counts only the SBC
	// audio bits.
	ThroughputKbps, GoodputKbps float64
	OverallPER                  float64
	// SkippedSlots counts master-TX slots the scheduler passed over
	// because the hop landed outside the best-channel set; Reslotted
	// counts rehearsal-gated slot retries.
	SkippedSlots int
	Reslotted    int
	// Prediction scores the shipped segments' rehearsal verdicts against
	// the receiver's decodes.
	Prediction Confusion
}

// Confusion counts predicted-vs-received decode outcomes: TP predicted a
// decode that happened, FP predicted one that failed, FN flagged a packet
// that decoded anyway, TN flagged one that failed.
type Confusion struct{ TP, FP, FN, TN int }

func (c *Confusion) add(predicted, received bool) {
	switch {
	case predicted && received:
		c.TP++
	case predicted:
		c.FP++
	case received:
		c.FN++
	default:
		c.TN++
	}
}

// Fig10Config sizes the run.
type Fig10Config struct {
	Packets int
	Seed    int64
}

// DefaultFig10 keeps the run affordable while exercising all channels.
func DefaultFig10() Fig10Config { return Fig10Config{Packets: 24, Seed: 10} }

// BestAudioChannels scores every Bluetooth channel inside the WiFi
// channel by pilot/null distance and returns the top n.
func BestAudioChannels(wifiCh, n int) ([]int, error) {
	center := 2407 + 5*float64(wifiCh)
	type scored struct {
		ch    int
		score float64
	}
	var all []scored
	for _, btCh := range bt.ChannelsInWiFiBand(center, 0.7) {
		plan, err := core.PlanForChannel(bt.ChannelMHz(btCh), wifiCh)
		if err != nil {
			continue
		}
		all = append(all, scored{btCh, plan.Score})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	if len(all) < n {
		return nil, fmt.Errorf("eval: only %d usable channels", len(all))
	}
	out := make([]int, n)
	for i := range out {
		out[i] = all[i].ch
	}
	sort.Ints(out)
	return out, nil
}

// Fig10AudioPER streams SBC audio over BlueFi with 5-slot DM5 packets on
// the three best channels and reports per-channel error splits. See also
// Fig10AudioSingleSlot for the §4.7 short-packet trade-off.
func Fig10AudioPER(cfg Fig10Config) (*AudioResult, error) {
	return audioRun(cfg, bt.DM5, sbc.DefaultConfig())
}

// Fig10AudioSingleSlot reruns the stream with short DM3 packets carrying
// a compact mono SBC configuration — the paper's "PER can be drastically
// decreased by using fewer channels or shorter packets" point. (A DM3
// with a small payload is short on the air; DM1 cannot carry even the
// RTP/L2CAP headers in one fragment.)
func Fig10AudioSingleSlot(cfg Fig10Config) (*AudioResult, error) {
	compact := sbc.Config{Freq: sbc.Freq16k, Blocks: 4, Mode: sbc.Mono, Alloc: sbc.SNR, Subbands: 4, Bitpool: 8}
	return audioRunN(cfg, bt.DM3, compact, 1)
}

func audioRun(cfg Fig10Config, pt bt.PacketType, sbcCfg sbc.Config) (*AudioResult, error) {
	return audioRunN(cfg, pt, sbcCfg, 0)
}

func audioRunN(cfg Fig10Config, pt bt.PacketType, sbcCfg sbc.Config, fppOverride int) (*AudioResult, error) {
	best, err := BestAudioChannels(3, 3)
	if err != nil {
		return nil, err
	}
	sched, err := a2dp.NewScheduler(a2dp.StreamConfig{
		Device:        evalDevice,
		WiFiCenterMHz: 2422,
		PacketType:    pt, // DM types carry the baseband 2/3 FEC
		BestChannels:  best,
	})
	if err != nil {
		return nil, err
	}
	enc, err := sbc.NewEncoder(sbcCfg)
	if err != nil {
		return nil, err
	}
	// Frames per media packet: fill the baseband payload when it fits,
	// else send one frame per media packet and let L2CAP segmentation
	// spread it over several baseband packets.
	fpp := fppOverride
	if fpp <= 0 {
		fpp = a2dp.FramesPerPacket(pt, sbcCfg)
	}
	if fpp < 1 {
		fpp = 1
	}

	opts := core.DefaultOptions()
	opts.Mode = core.RealTime
	opts.GFSK = gfsk.BRConfig()
	synth, err := core.New(opts)
	if err != nil {
		return nil, err
	}

	perCh := map[int]*ChannelPER{}
	for _, ch := range best {
		plan, err := core.PlanForChannel(bt.ChannelMHz(ch), 3)
		if err != nil {
			return nil, err
		}
		perCh[ch] = &ChannelPER{BTChannel: ch, FrequencyMHz: bt.ChannelMHz(ch), PilotDistMHz: plan.PilotDistanceMHz, ClearanceMHz: plan.Score}
	}

	res := &AudioResult{}
	var audioBitsDelivered, payloadBitsDelivered float64
	sampleClock := 0
	var firstClock, lastClock bt.Clock
	for p := 0; p < cfg.Packets; p++ {
		// Encode the next slice of a 440 Hz + 1.2 kHz stereo test tone.
		frames := make([][]byte, fpp)
		for f := range frames {
			pcm := make([][]float64, sbcCfg.Mode.Channels())
			for chn := range pcm {
				pcm[chn] = make([]float64, sbcCfg.SamplesPerFrame())
				for i := range pcm[chn] {
					tt := float64(sampleClock + i)
					fs := float64(sbcCfg.Freq.Hz())
					pcm[chn][i] = 9000*math.Sin(2*math.Pi*440/fs*tt) + 4000*math.Sin(2*math.Pi*1200/fs*tt)
				}
			}
			sampleClock += sbcCfg.SamplesPerFrame()
			fr, err := enc.Encode(pcm)
			if err != nil {
				return nil, err
			}
			frames[f] = fr
		}
		segments, err := sched.ScheduleMedia(frames, uint32(fpp*sbcCfg.SamplesPerFrame()))
		if err != nil {
			return nil, err
		}
		allOK := true
		var mediaPayloadBits float64
		for si, sp := range segments {
			if p == 0 && si == 0 {
				firstClock = sp.Clock
			}

			// Rehearsal-gated transmission: a segment the rehearsal
			// predicts its FEC cannot decode moves to the next slot.
			sp, sr, reslots, err := sched.SynthesizeGated(synth, sp)
			if err != nil {
				return nil, err
			}
			res.Reslotted += reslots
			lastClock = sp.Clock
			res.SkippedSlots += sp.SkippedSlots
			chModel := channel.Default(18, 1.5)
			chModel.Seed = cfg.Seed + int64(p*100+si)
			rcv, err := btrx.NewReceiver(btrx.Sniffer, sr.Plan.OffsetHz, evalDevice)
			if err != nil {
				return nil, err
			}
			out := scan.Air(rcv, chModel, nil, scan.Capture{Kind: scan.KindBR, IQ: sr.Waveform, Clk: uint32(sp.Clock)})
			if out.Err != nil {
				return nil, out.Err
			}
			perCh[sp.Channel].add(out)
			res.Sent++
			res.Prediction.add(sr.RehearsalDecodes, out.Decoded)
			if out.Decoded {
				res.Received++
				mediaPayloadBits += float64(8 * len(sp.Packet.Payload))
			} else {
				allOK = false
			}
		}
		if allOK {
			// All segments of the media packet arrived: the audio frame
			// set is delivered to the decoder.
			payloadBitsDelivered += mediaPayloadBits
			audioBitsDelivered += float64(8 * fpp * sbcCfg.FrameBytes())
		}
	}
	elapsed := (lastClock.Time() - firstClock.Time()).Seconds()
	if elapsed > 0 {
		res.ThroughputKbps = payloadBitsDelivered / elapsed / 1000
		res.GoodputKbps = audioBitsDelivered / elapsed / 1000
	}
	res.OverallPER = float64(res.Sent-res.Received) / float64(res.Sent)
	for _, ch := range best {
		res.PerChannel = append(res.PerChannel, *perCh[ch])
	}
	return res, nil
}

// FormatAudio renders Fig. 10 plus the throughput lines.
func FormatAudio(r *AudioResult) string {
	out := FormatChannelPER("Fig 10 — PER with 5-slot audio packets", r.PerChannel)
	out += fmt.Sprintf("  overall: PER=%.0f%% throughput=%.1f kbps goodput=%.1f kbps (skipped %d off-channel slots, %d rehearsal re-slots)\n",
		100*r.OverallPER, r.ThroughputKbps, r.GoodputKbps, r.SkippedSlots, r.Reslotted)
	c := r.Prediction
	out += fmt.Sprintf("  rehearsal vs receiver: predicted-decode %d decoded / %d failed; predicted-fail %d decoded / %d failed\n",
		c.TP, c.FP, c.FN, c.TN)
	return out
}

// PER returns the overall packet error rate of an audio run.
func (r *AudioResult) PER() float64 { return r.OverallPER }
