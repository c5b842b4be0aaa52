package eval

import (
	"fmt"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/channel"
	"bluefi/internal/core"
	"bluefi/internal/gfsk"
	"bluefi/internal/scan"
)

// Fig. 8 — effect of each impairment (§4.6): a standard FSK waveform as
// the baseline, each WiFi-hardware impairment applied cumulatively, RSSI
// measured per receiver. The paper transmitted these via USRP; the
// simulation feeds them straight to the channel.

// ImpairmentPoint is one box of Fig. 8.
type ImpairmentPoint struct {
	Receiver string
	Stage    string
	MeanRSSI float64
	Received float64
}

// Fig8Config sizes the experiment.
type Fig8Config struct {
	PacketsPerStage int
	Seed            int64
}

// DefaultFig8 returns the standard size.
func DefaultFig8() Fig8Config { return Fig8Config{PacketsPerStage: 10, Seed: 8} }

// Fig8Impairments measures RSSI per cumulative stage per receiver.
func Fig8Impairments(cfg Fig8Config) ([]ImpairmentPoint, error) {
	adv, err := testBeacon(8)
	if err != nil {
		return nil, err
	}
	air, err := adv.AirBits(38)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	s, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	waves, err := s.Ablation(air, BeaconFrequencyMHz)
	if err != nil {
		return nil, err
	}
	var out []ImpairmentPoint
	for _, prof := range btrx.Profiles {
		for wi, w := range waves {
			plan, err := core.PlanForChannel(BeaconFrequencyMHz, opts.WiFiChannel)
			if err != nil {
				return nil, err
			}
			rcv, err := btrx.NewReceiver(prof, plan.OffsetHz, bt.Device{})
			if err != nil {
				return nil, err
			}
			got, rssiSum := 0, 0.0
			for k := 0; k < cfg.PacketsPerStage; k++ {
				ch := channel.Default(18, 1.5)
				ch.Seed = cfg.Seed + int64(wi*1000+k)
				o := scan.Air(rcv, ch, nil, beaconCapture(w.IQ))
				if o.Err != nil {
					return nil, o.Err
				}
				// RSSI is reported whenever the correlator fires, as on
				// the phones; decode success tracks separately.
				if o.Detected {
					rssiSum += o.RSSIdBm
					if o.Decoded {
						got++
					}
				}
			}
			pt := ImpairmentPoint{
				Receiver: prof.Name,
				Stage:    w.Stage.String(),
				Received: float64(got) / float64(cfg.PacketsPerStage),
			}
			if rssiSum != 0 {
				pt.MeanRSSI = rssiSum / float64(cfg.PacketsPerStage)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// FormatImpairments renders Fig. 8 per receiver.
func FormatImpairments(points []ImpairmentPoint) string {
	out := "Fig 8 — RSSI per cumulative impairment\n"
	last := ""
	for _, p := range points {
		if p.Receiver != last {
			out += fmt.Sprintf("  %s:\n", p.Receiver)
			last = p.Receiver
		}
		out += fmt.Sprintf("    %-12s meanRSSI=%7.1f dBm  decoded=%3.0f%%\n", p.Stage, p.MeanRSSI, 100*p.Received)
	}
	return out
}
