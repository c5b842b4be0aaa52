package bluefi_test

// End-to-end conformance rig: every synthesis mode generated through
// the public bluefi API, pushed through the seeded channel model and
// decoded back through the internal/scan scanner. The contract
// (DESIGN.md §10):
//
//   - Rehearsal soundness: a packet whose synthesis-time rehearsal saw
//     zero mismatches MUST decode bit-identical on a clean channel. A
//     packet the rehearsal flagged (RehearsalMismatches > 0) may fail —
//     that is exactly what the flag predicts, and schedulers re-slot
//     such packets — but when it does decode it must be bit-identical.
//   - EDR boundary: the full COTS chain recovers the EDR access code
//     and header (detection) but not the DPSK payload, which does not
//     survive cyclic-prefix insertion; payload conformance runs on the
//     CP-bypass transport leg (§A.2 vendor recommendation).
//   - Under a seeded interferer storm the advertising PDR stays ≥80%
//     and every run with the same seeds is byte-identical.
//
// `make e2e` runs this file plus the scan package under -race.

import (
	"bytes"
	"testing"

	"bluefi"
	"bluefi/internal/bt"
	"bluefi/internal/channel"
	"bluefi/internal/dsp"
	"bluefi/internal/gfsk"
	"bluefi/internal/leaktest"
	"bluefi/internal/scan"
)

// e2eCapture pushes a synthesized packet through a seeded clean channel
// into a scanner capture.
func e2eCapture(t *testing.T, pkt *bluefi.Packet, kind scan.Kind, ch int, seed int64) scan.Capture {
	t.Helper()
	m := channel.Default(18, 1.5)
	m.Seed = seed
	iq, err := m.Apply(pkt.Waveform())
	if err != nil {
		t.Fatal(err)
	}
	return scan.Capture{Kind: kind, Channel: ch, OffsetHz: pkt.ChannelOffsetHz(), IQ: iq}
}

// TestGoldenRoundTrip closes the loop over the committed golden matrix:
// every vector synthesizes and, per the rehearsal-soundness contract,
// decodes back bit-identical through the scanner.
func TestGoldenRoundTrip(t *testing.T) {
	ib := bluefi.IBeacon{Major: 0xB1, Minor: 0xF1}
	wantAddr := [6]byte{0xBF, 0x01, 0x02, 0x03, 0x04, 0x05}
	wantData := ib.ADStructures()
	cleanDecodes := 0
	for _, v := range goldenCases(testing.Short()) {
		v := v
		t.Run(v.Chip+"/"+v.Mode+"/ble"+itoa(v.BLEChannel)+"-wifi"+itoa(v.WiFiChannel), func(t *testing.T) {
			pkt := goldenBeacon(t, v.Chip, v.Mode, v.BLEChannel, v.WiFiChannel)
			s := scan.NewScanner(scan.Config{Seed: 11})
			out := s.Ingest(e2eCapture(t, pkt, scan.KindBLEAdv, v.BLEChannel, 3))
			if out.Err != nil {
				t.Fatal(out.Err)
			}
			if pkt.RehearsalMismatches == 0 && !out.Decoded {
				t.Fatalf("rehearsal predicted success but the scanner failed: %+v", out)
			}
			if !out.Decoded {
				t.Logf("flagged at synthesis (%d mismatches) and did not decode — the contract allows this", pkt.RehearsalMismatches)
				return
			}
			cleanDecodes++
			if out.Adv == nil || out.Adv.AdvA != wantAddr || !bytes.Equal(out.Adv.Data, wantData) {
				t.Fatalf("decode is not bit-identical: %+v", out.Adv)
			}
		})
	}
	if cleanDecodes == 0 {
		t.Fatal("no golden vector decoded at all")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestE2ELoopbackModes covers the three synthesis modes end to end, all
// through the public API: BLE beacons in both synthesis modes, a BR
// baseband packet, and EDR (full-chain detection + CP-bypass payload).
func TestE2ELoopbackModes(t *testing.T) {
	t.Run("BLE", func(t *testing.T) {
		// Channel pairs whose goldens carry zero rehearsal mismatches in
		// both synthesis modes — these MUST decode bit-identical.
		for _, tc := range []struct {
			mode string
			ble  int
			wifi int
		}{
			{"Quality", 38, 4},
			{"RealTime", 39, 13},
		} {
			pkt := goldenBeacon(t, "AR9331", tc.mode, tc.ble, tc.wifi)
			if pkt.RehearsalMismatches > 0 {
				t.Fatalf("%s/%d-%d: golden pair regressed to %d rehearsal mismatches", tc.mode, tc.ble, tc.wifi, pkt.RehearsalMismatches)
			}
			s := scan.NewScanner(scan.Config{Seed: 21})
			out := s.Ingest(e2eCapture(t, pkt, scan.KindBLEAdv, tc.ble, 5))
			ib := bluefi.IBeacon{Major: 0xB1, Minor: 0xF1}
			if !out.Decoded || out.Adv == nil || !bytes.Equal(out.Adv.Data, ib.ADStructures()) {
				t.Fatalf("%s mode did not round-trip bit-identical: %+v", tc.mode, out)
			}
		}
	})

	t.Run("BR", func(t *testing.T) {
		syn, err := bluefi.New(bluefi.Options{Chip: bluefi.AR9331, Mode: bluefi.Quality, WiFiChannel: 3})
		if err != nil {
			t.Fatal(err)
		}
		dev := bluefi.Device{LAP: 0x123456, UAP: 0x9A}
		payload := []byte("bluefi e2e")
		decoded := 0
		for clk := uint32(0); clk < 24; clk += 4 {
			pkt, err := syn.BRPacket(dev, &bluefi.BasebandPacket{Type: bluefi.DM1, LTAddr: 1, Payload: payload, Clock: clk}, 24)
			if err != nil {
				t.Fatal(err)
			}
			s := scan.NewScanner(scan.Config{Seed: 31, Device: bt.Device(dev)})
			cap1 := e2eCapture(t, pkt, scan.KindBR, 24, int64(clk)+7)
			cap1.Clk = clk
			out := s.Ingest(cap1)
			if out.Err != nil {
				t.Fatal(out.Err)
			}
			if pkt.RehearsalMismatches == 0 && !out.Decoded {
				t.Fatalf("clk %d: rehearsal-clean BR packet failed to decode: %+v", clk, out)
			}
			if out.Decoded {
				decoded++
				if !bytes.Equal(out.Payload, payload) {
					t.Fatalf("clk %d: BR payload corrupted: %x", clk, out.Payload)
				}
			}
		}
		if decoded == 0 {
			t.Fatal("no BR slot decoded end to end")
		}
	})

	t.Run("EDR", func(t *testing.T) {
		syn, err := bluefi.New(bluefi.Options{Chip: bluefi.AR9331, Mode: bluefi.Quality, WiFiChannel: 3})
		if err != nil {
			t.Fatal(err)
		}
		dev := bluefi.Device{LAP: 0x123456, UAP: 0x9A}
		payload := []byte("edr over wifi, 2 Mb/s")
		detections := 0
		for clk := uint32(0); clk < 16; clk += 4 {
			pkt, err := syn.EDRPacket(dev, &bluefi.EDRBasebandPacket{Type: bluefi.EDR2DH1, LTAddr: 1, Payload: payload, Clock: clk}, 24)
			if err != nil {
				t.Fatal(err)
			}
			s := scan.NewScanner(scan.Config{Seed: 41, Device: bt.Device(dev)})
			cap1 := e2eCapture(t, pkt, scan.KindEDR, 24, int64(clk)+3)
			cap1.Clk, cap1.EDRRate = clk, bt.EDR2
			out := s.Ingest(cap1)
			if out.Err != nil {
				t.Fatal(out.Err)
			}
			if out.Detected {
				detections++
			}
			if out.Decoded {
				// The CP boundary makes payload survival exceptional; if
				// it does decode it must still be bit-identical.
				if !bytes.Equal(out.Payload, payload) {
					t.Fatalf("clk %d: EDR payload decoded but corrupted: %x", clk, out.Payload)
				}
			}
		}
		if detections == 0 {
			t.Fatal("EDR access code + header never detected through the full chain")
		}

		// CP-bypass transport leg: the same EDR packet as an ideal phase
		// trajectory (no PSDU layout, so no cyclic prefixes), mixed to
		// its channel offset, through the channel into the scanner —
		// payload must be bit-identical.
		inner := &bt.EDRPacket{Type: bt.EDR2DH1, LTAddr: 1, Payload: payload, Clock: 8}
		theta, _, err := inner.AirPhase(bt.Device(dev), 20)
		if err != nil {
			t.Fatal(err)
		}
		iq := dsp.PhaseToIQ(theta, 1)
		dsp.Mix(iq, 4e6, 20e6) // 2426 MHz under WiFi channel 3 (2422)
		m := channel.Default(18, 1.5)
		m.Seed = 9
		rx, err := m.Apply(iq)
		if err != nil {
			t.Fatal(err)
		}
		s := scan.NewScanner(scan.Config{Seed: 43, Device: bt.Device(dev)})
		out := s.Ingest(scan.Capture{Kind: scan.KindEDR, Channel: 24, OffsetHz: 4e6, IQ: rx, Clk: 8, EDRRate: bt.EDR2})
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if !out.Decoded || !bytes.Equal(out.Payload, payload) {
			t.Fatalf("EDR CP-bypass leg not bit-identical: %+v", out)
		}
	})
}

// stormCaptures builds the interference scenario: one rehearsal-clean
// beacon repeated over the air while a seeded WiFi interferer storms the
// band.
func stormCaptures(t *testing.T, n int) []scan.Capture {
	t.Helper()
	// The paper's canonical pairing (BLE 38 under WiFi 3) has the widest
	// demodulation margins of the golden matrix — other subcarrier
	// alignments decode cleanly but fold under co-channel interference
	// much earlier.
	pkt := goldenBeacon(t, "AR9331", "Quality", 38, 3)
	caps := make([]scan.Capture, n)
	for i := range caps {
		m := channel.Default(18, 1.5)
		m.Seed = int64(1000 + i)
		iq, err := m.Apply(pkt.Waveform())
		if err != nil {
			t.Fatal(err)
		}
		storm := channel.Interferer{PowerDBm: -40, DutyCycle: 0.5, BurstSamples: 4800, Seed: int64(2000 + i)}
		storm.AddTo(iq)
		caps[i] = scan.Capture{Kind: scan.KindBLEAdv, Channel: 38, OffsetHz: pkt.ChannelOffsetHz(), IQ: iq}
	}
	return caps
}

// TestE2EStormPDR: under a seeded interferer storm the scanner keeps
// ≥80% advertising PDR, and the whole run is deterministic per seed.
func TestE2EStormPDR(t *testing.T) {
	const n = 25
	caps := stormCaptures(t, n)
	run := func() (scan.Snapshot, []byte) {
		s := scan.NewScanner(scan.Config{Seed: 77})
		s.SweepParallel(caps)
		snap := s.Snapshot()
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return snap, buf.Bytes()
	}
	snap, js := run()
	if len(snap.Channels) != 1 {
		t.Fatalf("expected one channel cell, got %d", len(snap.Channels))
	}
	st := snap.Channels[0]
	if st.PDR < 0.8 {
		t.Fatalf("storm PDR %.2f below the 0.80 floor (%d/%d)", st.PDR, st.Decoded, st.Attempts)
	}
	if st.PDR == 1 && st.CRCFailures == 0 && st.SyncErrorsSum == 0 {
		t.Logf("storm left no trace at all — consider raising interferer power")
	}
	_, js2 := run()
	if !bytes.Equal(js, js2) {
		t.Fatalf("storm run is not deterministic:\n%s\nvs\n%s", js, js2)
	}
}

// TestE2EConnection drives the full connection lifecycle over the air:
// the BlueFi peripheral advertises through the pool, the central
// answers with a CONN_IND on the advertising channel, and the two hop
// through data channels exchanging keepalives until an ATT read
// completes — every peripheral transmission synthesized via WiFi, every
// reception through the scanner. Run under -race; goroutines must not
// leak.
func TestE2EConnection(t *testing.T) {
	noLeak := leaktest.Check(t)
	pool, err := bluefi.NewPool(bluefi.Options{Chip: bluefi.AR9331, Mode: bluefi.Quality, WiFiChannel: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	attrs := &scan.AttributeServer{}
	attrs.Set(0x0003, []byte("BlueFi"))
	peripheral := scan.NewPeripheral([6]byte{0xBF, 1, 2, 3, 4, 5}, []byte{0x02, 0x01, 0x06}, attrs)
	central := scan.NewCentral([6]byte{0xC0, 9, 8, 7, 6, 5})

	// transmitAP synthesizes peripheral air bits through the pool and
	// returns the predicted waveform; mm counts rehearsal flags.
	transmitAP := func(air []byte, freqMHz float64) (*bluefi.Packet, error) {
		res := pool.SynthesizeBatch([]bluefi.BatchJob{{Raw: &bluefi.RawGFSKJob{AirBits: air, FreqMHz: freqMHz, BLE: true}}})
		if res[0].Err != nil {
			return nil, res[0].Err
		}
		return res[0].Packet, nil
	}
	apChannel := func(pkt *bluefi.Packet, kind scan.Kind, ch int, seed int64) scan.Capture {
		return e2eCapture(t, pkt, kind, ch, seed)
	}
	// airGFSK models the central's own radio: ideal GFSK, mixed to the
	// channel offset under WiFi channel 3 and run through the channel.
	airGFSK := func(air []byte, ch int, seed int64) scan.Capture {
		wave, err := gfsk.BLEConfig().Modulate(air)
		if err != nil {
			t.Fatal(err)
		}
		off, err := scan.ChannelOffsetHz(ch, 2422)
		if err != nil {
			t.Fatal(err)
		}
		dsp.Mix(wave, off, 20e6)
		m := channel.Default(18, 1.5)
		m.Seed = seed
		iq, err := m.Apply(wave)
		if err != nil {
			t.Fatal(err)
		}
		return scan.Capture{Channel: ch, OffsetHz: off, IQ: iq}
	}

	apScanner := scan.NewScanner(scan.Config{Seed: 101})      // the AP's receive side
	centralScanner := scan.NewScanner(scan.Config{Seed: 102}) // the central's radio

	// 1. ADV_IND: peripheral → air (WiFi synthesis) → central.
	adv, err := peripheral.Advertise()
	if err != nil {
		t.Fatal(err)
	}
	advAir, err := adv.AirBits(38)
	if err != nil {
		t.Fatal(err)
	}
	advPkt, err := transmitAP(advAir, 2426)
	if err != nil {
		t.Fatal(err)
	}
	advOut := centralScanner.Ingest(apChannel(advPkt, scan.KindBLEAdv, 38, 301))
	if !advOut.Decoded || advOut.Adv == nil {
		t.Fatalf("central never heard the ADV_IND (rehearsal mismatches %d): %+v", advPkt.RehearsalMismatches, advOut)
	}
	if advOut.Adv.PDUType != bt.AdvInd {
		t.Fatalf("ADV PDU type %v not connectable", advOut.Adv.PDUType)
	}

	// 2. CONN_IND: central → air (ideal GFSK) → peripheral's scanner.
	const aa, crcInit = uint32(0x50655535), uint32(0xA1B2C3)
	chm, err := bt.NewLEChannelMap(bt.LEDataChannelsInWiFiBand(2422, 1))
	if err != nil {
		t.Fatal(err)
	}
	ci, err := central.Connect(advOut.Adv, aa, crcInit, chm, 7)
	if err != nil {
		t.Fatal(err)
	}
	ciAir, err := ci.AirBits(38)
	if err != nil {
		t.Fatal(err)
	}
	ciCap := airGFSK(ciAir, 38, 302)
	ciCap.Kind = scan.KindBLEAdv
	ciOut := apScanner.Ingest(ciCap)
	if !ciOut.Decoded || ciOut.Adv == nil {
		t.Fatalf("peripheral never heard the CONN_IND: %+v", ciOut)
	}
	parsedCI, err := bt.ParseConnInd(ciOut.Adv)
	if err != nil {
		t.Fatal(err)
	}
	if err := peripheral.HandleConnInd(parsedCI); err != nil {
		t.Fatal(err)
	}
	if peripheral.State() != scan.StateConnected || central.State() != scan.StateConnected {
		t.Fatalf("states after CONN_IND: %v / %v", peripheral.State(), central.State())
	}
	apScanner.Follow(aa, crcInit)
	centralScanner.Follow(aa, crcInit)

	// 3. Connection events: keepalives, then the attribute read. Every
	// event the central transmits ideal GFSK; the peripheral replies
	// through WiFi synthesis. Lost events retransmit.
	if err := central.QueueRead(0x0003); err != nil {
		t.Fatal(err)
	}
	events, apDecodes := 0, 0
	for ev := 0; ev < 24; ev++ {
		chC, err := central.NextChannel()
		if err != nil {
			t.Fatal(err)
		}
		chP, err := peripheral.NextChannel()
		if err != nil {
			t.Fatal(err)
		}
		if chC != chP {
			t.Fatalf("event %d: hop selectors diverged (%d vs %d)", ev, chC, chP)
		}
		events++

		tx, err := central.NextPDU()
		if err != nil {
			t.Fatal(err)
		}
		txAir, err := tx.AirBits(aa, chC, crcInit)
		if err != nil {
			t.Fatal(err)
		}
		txCap := airGFSK(txAir, chC, int64(400+ev))
		txCap.Kind = scan.KindBLEData
		txOut := apScanner.Ingest(txCap)
		if !txOut.Decoded || txOut.Data == nil {
			continue // event lost central→peripheral; both sides hop on
		}
		rsp, err := peripheral.HandleEvent(txOut.Data)
		if err != nil {
			t.Fatal(err)
		}
		rspAir, err := rsp.AirBits(aa, chC, crcInit)
		if err != nil {
			t.Fatal(err)
		}
		freq, err := bt.BLEChannelMHz(chC)
		if err != nil {
			t.Fatal(err)
		}
		rspPkt, err := transmitAP(rspAir, freq)
		if err != nil {
			t.Fatal(err)
		}
		rspCap := apChannel(rspPkt, scan.KindBLEData, chC, int64(500+ev))
		rspOut := centralScanner.Ingest(rspCap)
		if !rspOut.Decoded || rspOut.Data == nil {
			continue // reply lost peripheral→central; central retransmits
		}
		apDecodes++
		if err := central.HandleSlave(rspOut.Data); err != nil {
			t.Fatal(err)
		}
		if v, ok := central.Value(0x0003); ok && bytes.Equal(v, []byte("BlueFi")) {
			break
		}
	}
	v, ok := central.Value(0x0003)
	if !ok || !bytes.Equal(v, []byte("BlueFi")) {
		t.Fatalf("attribute read never completed over %d events (%d replies decoded): %q, %v", events, apDecodes, v, ok)
	}
	t.Logf("connection completed: %d events, %d synthesized replies decoded", events, apDecodes)

	pool.Close()
	noLeak()
}
