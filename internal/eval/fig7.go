package eval

import (
	"fmt"

	"bluefi/internal/airtime"
	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/channel"
	"bluefi/internal/chip"
	"bluefi/internal/core"
	"bluefi/internal/gfsk"
	"bluefi/internal/scan"
)

// Fig. 7a — dedicated Bluetooth hardware comparison (§4.4): Pixel and S6
// transmit beacons with a real Bluetooth radio (pure GFSK, no WiFi
// impairments) at "high" Tx power; S6 and iPhone receive at 1.5 m.

// DedicatedPoint is one column of Fig. 7a.
type DedicatedPoint struct {
	Pair     string
	MeanRSSI float64
	Received float64
}

// btTxPowerDBm is Android's "high" advertise power class.
const btTxPowerDBm = 8

// Fig7aDedicatedBT measures the four transmitter→receiver pairs.
func Fig7aDedicatedBT(packets int, seed int64) ([]DedicatedPoint, error) {
	adv, err := testBeacon(3)
	if err != nil {
		return nil, err
	}
	air, err := adv.AirBits(38)
	if err != nil {
		return nil, err
	}
	cfg := gfsk.BLEConfig()
	iq, err := cfg.Modulate(air)
	if err != nil {
		return nil, err
	}
	pairs := []struct {
		tx string
		rx btrx.Profile
	}{
		{"Pixel", btrx.S6}, {"Pixel", btrx.IPhone},
		{"S6", btrx.Pixel}, {"S6", btrx.IPhone},
	}
	var out []DedicatedPoint
	for i, p := range pairs {
		rcv, err := btrx.NewReceiver(p.rx, 0, bt.Device{})
		if err != nil {
			return nil, err
		}
		ch := channel.Default(btTxPowerDBm, 1.5)
		ch.ShadowingStdDB = 1.0
		got, rssiSum := 0, 0.0
		for k := 0; k < packets; k++ {
			ch.Seed = seed + int64(i*1000+k)
			out := scan.Air(rcv, ch, nil, beaconCapture(iq))
			if out.Err != nil {
				return nil, out.Err
			}
			if out.Decoded {
				got++
				rssiSum += out.RSSIdBm
			}
		}
		pt := DedicatedPoint{Pair: p.tx + "→" + p.rx.Name, Received: float64(got) / float64(packets)}
		if got > 0 {
			pt.MeanRSSI = rssiSum / float64(got)
		}
		out = append(out, pt)
	}
	return out, nil
}

// Fig. 7b — WiFi throughput under four scenarios (§4.5).

// ThroughputScenario is one column of Fig. 7b.
type ThroughputScenario struct {
	Name   string
	Series []float64
	Stats  airtime.Stats
}

// Fig7bThroughput builds the four iPerf3-style series: baseline, BlueFi
// on the same router, and dedicated Bluetooth on Pixel and S6 protected
// by the standard coexistence mechanism.
func Fig7bThroughput(seconds int) ([]ThroughputScenario, error) {
	c := chip.New(chip.AR9331)
	// BlueFi beacon airtime: a beacon synthesizes to a few-KB PSDU.
	res, err := synthesizeBeacon(c, 4)
	if err != nil {
		return nil, err
	}
	at, err := c.Airtime(len(res.PSDU), 7)
	if err != nil {
		return nil, err
	}
	mk := func(name string, cfg airtime.Config) (ThroughputScenario, error) {
		s, err := cfg.Series(seconds)
		if err != nil {
			return ThroughputScenario{}, err
		}
		return ThroughputScenario{Name: name, Series: s, Stats: airtime.Summarize(s)}, nil
	}
	base := airtime.Baseline()
	bluefi := base
	bluefi.Seed = 2
	bluefi.BlueFiPacketsPerSecond = 10
	bluefi.BlueFiAirtime = at
	bluefi.CPUOverheadFraction = 0.018 // §4.5: the AR9331 MCU generates packets
	pixel := base
	pixel.Seed = 3
	pixel.BTCoexDutyCycle = 10 * 376e-6 // 10 Hz ADV_NONCONN on a real radio
	s6 := base
	s6.Seed = 4
	s6.BTCoexDutyCycle = 10 * 376e-6 * 1.8 // S6's coex implementation cedes more airtime
	var out []ThroughputScenario
	for _, sc := range []struct {
		name string
		cfg  airtime.Config
	}{
		{"Bluetooth Disabled", base},
		{"BlueFi", bluefi},
		{"Pixel", pixel},
		{"S6", s6},
	} {
		t, err := mk(sc.name, sc.cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig. 7c — RSSI with saturated background WiFi traffic (§4.5).

// Fig7cBackgroundTraffic reruns the 1.5 m beacon series with a saturated
// co-channel WiFi interferer.
func Fig7cBackgroundTraffic(reports int, seed int64) ([]Trace, error) {
	c := chip.New(chip.AR9331)
	// Beacons carry a rotating counter in practice; synthesize a few
	// variants so the series is not hostage to one payload's worst-case
	// impairment alignment.
	var waves []*core.Result
	for seq := 5; seq < 9; seq++ {
		res, err := synthesizeBeacon(c, seq)
		if err != nil {
			return nil, err
		}
		waves = append(waves, res)
	}
	res := waves[0]
	var out []Trace
	for _, prof := range btrx.Profiles {
		rcv, err := btrx.NewReceiver(prof, res.Plan.OffsetHz, bt.Device{})
		if err != nil {
			return nil, err
		}
		tr := Trace{Receiver: prof.Name, Distance: "1.5m+traffic"}
		got := 0
		for i := 0; i < reports; i++ {
			tSec := 120 * float64(i) / float64(reports)
			if !prof.Reporting(tSec) {
				continue
			}
			ch := channel.Default(18, 1.5)
			ch.Seed = seed + int64(i)
			// Saturated WiFi neighbour: WiFi defers while the BlueFi
			// frame (itself a WiFi frame) holds the channel, so only
			// residual collision energy reaches the receiver, as
			// partial-time interference.
			intf := channel.Interferer{
				PowerDBm:     ch.RxPowerDBm() - 18,
				DutyCycle:    0.2,
				BurstSamples: 4800,
				Seed:         seed + int64(1000+i),
			}
			out := scan.Air(rcv, ch, &intf, beaconCapture(waves[i%len(waves)].Waveform))
			if out.Err != nil {
				return nil, out.Err
			}
			if out.Decoded {
				got++
				tr.Samples = append(tr.Samples, Sample{TimeS: tSec, RSSIdBm: out.RSSIdBm})
			}
		}
		tr.ReceivedFraction = float64(got) / float64(reports)
		out = append(out, tr)
	}
	return out, nil
}

// FormatThroughput renders Fig. 7b.
func FormatThroughput(scs []ThroughputScenario) string {
	out := "Fig 7b — WiFi throughput (Mb/s)\n"
	for _, sc := range scs {
		out += fmt.Sprintf("  %-18s mean=%5.1f median=%5.1f min=%5.1f max=%5.1f\n",
			sc.Name, sc.Stats.Mean, sc.Stats.Median, sc.Stats.Min, sc.Stats.Max)
	}
	return out
}
