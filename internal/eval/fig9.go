package eval

import (
	"fmt"
	"sync"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/channel"
	"bluefi/internal/core"
	"bluefi/internal/gfsk"
	"bluefi/internal/scan"
)

// Fig. 9 — PER with single-slot packets (§4.7): BlueFi transmits DM1
// packets on ten Bluetooth channels inside one WiFi channel; the
// FTS4BT-class sniffer classifies each reception as no error, header
// error, or CRC error. Channels adjacent to WiFi pilots should fare much
// worse — the shape that motivates frequency planning.

// ChannelPER is one bar of Fig. 9/10.
type ChannelPER struct {
	BTChannel    int
	FrequencyMHz float64
	// PilotDistMHz and ClearanceMHz locate the channel relative to WiFi
	// pilots and to the nearest pilot-or-null (the planning score).
	PilotDistMHz float64
	ClearanceMHz float64
	Sent         int
	NoError      int
	HeaderError  int
	CRCError     int
	Lost         int
}

// add counts one reception: lost when nothing correlated, else split by
// the decoder's verdict.
func (c *ChannelPER) add(o scan.Outcome) {
	c.Sent++
	switch {
	case !o.Detected:
		c.Lost++
	case o.Decoded:
		c.NoError++
	case o.HeaderError:
		c.HeaderError++
	default:
		c.CRCError++
	}
}

// PER returns the packet error rate.
func (c ChannelPER) PER() float64 {
	if c.Sent == 0 {
		return 0
	}
	return float64(c.Sent-c.NoError) / float64(c.Sent)
}

// Fig9Config sizes the experiment.
type Fig9Config struct {
	PacketsPerChannel int
	Channels          []int // Bluetooth channel indices; nil picks 10 inside WiFi ch 3
	Seed              int64
	// Parallelism fans the independent per-channel sweeps over this many
	// workers, each owning its own synthesizer and receiver (0 or 1 =
	// serial). Every per-packet result is a pure function of its channel,
	// index and seed, so the parallel sweep is identical to a serial run.
	Parallelism int
}

// DefaultFig9 mirrors the paper's ten channels.
func DefaultFig9() Fig9Config {
	return Fig9Config{PacketsPerChannel: 12, Seed: 9}
}

// evalDevice is the link context of the PER experiments.
var evalDevice = bt.Device{LAP: 0x123456, UAP: 0x9A}

// Fig9SingleSlotPER runs the per-channel single-slot sweep.
func Fig9SingleSlotPER(cfg Fig9Config) ([]ChannelPER, error) {
	chans := cfg.Channels
	if chans == nil {
		// Ten channels inside WiFi channel 3 that frequency planning can
		// actually serve (the outermost ones fall off the data region).
		for _, c := range bt.ChannelsInWiFiBand(2422, 0.7) {
			if _, err := core.PlanForChannel(bt.ChannelMHz(c), 3); err == nil {
				chans = append(chans, c)
			}
		}
		for len(chans) > 10 {
			chans = append(chans[:1], chans[2:]...) // thin evenly from the front
		}
	}
	opts := core.DefaultOptions()
	opts.Mode = core.RealTime
	opts.GFSK = gfsk.BRConfig()

	workers := cfg.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > len(chans) {
		workers = len(chans)
	}
	out := make([]ChannelPER, len(chans))
	errs := make([]error, len(chans))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := core.New(opts)
			for ci := range next {
				if err != nil {
					errs[ci] = err
					continue
				}
				out[ci], errs[ci] = fig9Channel(cfg, s, ci, chans[ci])
			}
		}()
	}
	for ci := range chans {
		next <- ci
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fig9Channel sweeps one Bluetooth channel on the given synthesizer.
func fig9Channel(cfg Fig9Config, s *core.Synthesizer, ci, btCh int) (ChannelPER, error) {
	freq := bt.ChannelMHz(btCh)
	plan, err := core.PlanForChannel(freq, s.Options().WiFiChannel)
	if err != nil {
		return ChannelPER{}, err
	}
	res := ChannelPER{BTChannel: btCh, FrequencyMHz: freq, PilotDistMHz: plan.PilotDistanceMHz, ClearanceMHz: plan.Score}
	rcv, err := btrx.NewReceiver(btrx.Sniffer, plan.OffsetHz, evalDevice)
	if err != nil {
		return ChannelPER{}, err
	}
	for k := 0; k < cfg.PacketsPerChannel; k++ {
		clk := uint32(4 * (ci*cfg.PacketsPerChannel + k))
		pkt := &bt.Packet{
			Type:    bt.DM1, // single-slot with the 2/3-rate FEC, as audio links use
			LTAddr:  1,
			SEQN:    byte(k & 1),
			Payload: []byte(fmt.Sprintf("per-%02d-%03d", btCh, k)),
			Clock:   clk,
		}
		air, err := pkt.AirBits(evalDevice)
		if err != nil {
			return ChannelPER{}, err
		}
		synth, err := s.SynthesizeFEC(air, freq, pkt.FECLayout(btrx.SyncErrorBudget))
		if err != nil {
			return ChannelPER{}, err
		}
		ch := channel.Default(18, 1.5)
		ch.Seed = cfg.Seed + int64(ci*1000+k)
		out := scan.Air(rcv, ch, nil, scan.Capture{Kind: scan.KindBR, IQ: synth.Waveform, Clk: clk})
		if out.Err != nil {
			return ChannelPER{}, out.Err
		}
		res.add(out)
	}
	return res, nil
}

// FormatChannelPER renders Fig. 9/10 bars.
func FormatChannelPER(title string, rows []ChannelPER) string {
	out := title + "\n"
	for _, r := range rows {
		out += fmt.Sprintf("  ch %2d (%g MHz, pilot/null clearance %4.2f MHz): ok=%2d hdrErr=%2d crcErr=%2d lost=%2d  PER=%5.1f%%\n",
			r.BTChannel, r.FrequencyMHz, r.ClearanceMHz, r.NoError, r.HeaderError, r.CRCError, r.Lost, 100*r.PER())
	}
	return out
}
