// Package eval reproduces every figure and table of the paper's
// evaluation (§4) on the simulated substrate: scenario runners return
// typed results, and cmd/bluefi-eval renders them as the text equivalent
// of the paper's plots. EXPERIMENTS.md records paper-vs-measured notes
// per experiment.
package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"bluefi/internal/beacon"
	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/channel"
	"bluefi/internal/chip"
	"bluefi/internal/core"
	"bluefi/internal/gfsk"
	"bluefi/internal/scan"
)

// BeaconFrequencyMHz is the advertising channel the experiments use:
// BLE channel 38 at 2426 MHz, carried by WiFi channel 3 per §2.6.
const BeaconFrequencyMHz = 2426

// testBeacon builds the evaluation beacon payload: 30 bytes of data with
// a 6-byte address, like the paper's §3 setup.
func testBeacon(seq int) (*bt.Advertisement, error) {
	b := beacon.IBeacon{Major: 1, Minor: uint16(seq), MeasuredPower: -59}
	for i := range b.UUID {
		b.UUID[i] = byte(i * 7)
	}
	return beacon.Advertisement([6]byte{0xB1, 0x0E, 0xF1, 0x00, 0x00, byte(seq)}, b.ADStructures())
}

// synthesizeBeacon produces the BlueFi waveform for one beacon with the
// chip's scrambler seed.
func synthesizeBeacon(c *chip.Chip, seq int) (*core.Result, error) {
	adv, err := testBeacon(seq)
	if err != nil {
		return nil, err
	}
	air, err := adv.AirBits(38)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	opts.ScramblerSeed = c.NextSeed()
	s, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	return s.Synthesize(air, BeaconFrequencyMHz)
}

// Sample is one reported measurement in a time series.
type Sample struct {
	TimeS   float64
	RSSIdBm float64
}

// Trace is a receiver's measurement series, as the nRF-Connect-style apps
// in Fig. 5 display it.
type Trace struct {
	Receiver string
	Distance string
	Samples  []Sample
	// ReceivedFraction is packets decoded / packets sent.
	ReceivedFraction float64
}

// synthesizeBeaconSet builds several beacon variants (rotating counter,
// as real beacons carry) so series are not hostage to one payload's
// worst-case impairment alignment.
func synthesizeBeaconSet(c *chip.Chip, baseSeq, n int) ([]*core.Result, error) {
	var out []*core.Result
	for i := 0; i < n; i++ {
		res, err := synthesizeBeacon(c, baseSeq+i)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// beaconCapture tags a transmit waveform as an advertisement on channel
// 38, the one every beacon experiment uses.
func beaconCapture(iq []complex128) scan.Capture {
	return scan.Capture{Kind: scan.KindBLEAdv, Channel: 38, IQ: iq}
}

// receiveSeries transmits the waveforms cyclically over a fading/noisy
// channel and collects the receiver's reports for durationS seconds at
// the given report rate.
func receiveSeries(waves []*core.Result, prof btrx.Profile, ch channel.Model, durationS float64, reports int, seed int64) (Trace, error) {
	tr := Trace{Receiver: prof.Name}
	rcv, err := btrx.NewReceiver(prof, waves[0].Plan.OffsetHz, bt.Device{})
	if err != nil {
		return tr, err
	}
	rng := rand.New(rand.NewSource(seed))
	got := 0
	for i := 0; i < reports; i++ {
		tSec := durationS * float64(i) / float64(reports)
		if !prof.Reporting(tSec) {
			continue
		}
		ch.Seed = rng.Int63()
		out := scan.Air(rcv, ch, nil, beaconCapture(waves[i%len(waves)].Waveform))
		if out.Err != nil {
			return tr, out.Err
		}
		if out.Decoded {
			got++
			tr.Samples = append(tr.Samples, Sample{TimeS: tSec, RSSIdBm: out.RSSIdBm})
		}
	}
	tr.ReceivedFraction = float64(got) / float64(reports)
	return tr, nil
}

// MeanRSSI averages a trace's reports (NaN-free; zero when empty).
func (t Trace) MeanRSSI() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range t.Samples {
		s += v.RSSIdBm
	}
	return s / float64(len(t.Samples))
}

// FormatTraces renders traces as aligned text.
func FormatTraces(title string, traces []Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, tr := range traces {
		fmt.Fprintf(&b, "  %-8s %-6s meanRSSI=%7.1f dBm  received=%3.0f%%  n=%d\n",
			tr.Receiver, tr.Distance, tr.MeanRSSI(), 100*tr.ReceivedFraction, len(tr.Samples))
	}
	return b.String()
}

// PlanFor returns the WiFi-channel-3 plan for a Bluetooth channel index.
func PlanFor(btCh int) (core.ChannelPlan, error) {
	return core.PlanForChannel(bt.ChannelMHz(btCh), 3)
}
