package btrx

import (
	"math"
	"math/rand"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/channel"
	"bluefi/internal/dsp"
	"bluefi/internal/gfsk"
)

func mustBRWaveform(t testing.TB, dev bt.Device, pkt *bt.Packet, offsetHz float64) []complex128 {
	t.Helper()
	air, err := pkt.AirBits(dev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gfsk.BRConfig()
	cfg.CenterOffset = offsetHz
	iq, err := cfg.Modulate(air)
	if err != nil {
		t.Fatal(err)
	}
	return iq
}

func TestReceiveBRCleanLoopback(t *testing.T) {
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pkt := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: []byte("hello bluefi"), Clock: 12}
	for _, off := range []float64{0, 3e6, -5e6} {
		iq := mustBRWaveform(t, dev, pkt, off)
		ch := channel.Default(18, 1.5)
		rx, err := ch.Apply(iq)
		if err != nil {
			t.Fatal(err)
		}
		rcv, err := NewReceiver(Pixel, off, dev)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rcv.ReceiveBR(rx, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Detected {
			t.Fatalf("offset %g: not detected (sync errors %d)", off, rep.SyncErrors)
		}
		if !rep.Result.OK {
			t.Fatalf("offset %g: decode failed: %+v", off, rep.Result)
		}
		if string(rep.Result.Payload) != "hello bluefi" {
			t.Fatalf("offset %g: payload %q", off, rep.Result.Payload)
		}
	}
}

func TestReceiveBRMultiSlot(t *testing.T) {
	dev := bt.Device{LAP: 0xABCDEF, UAP: 0x42}
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i)
	}
	pkt := &bt.Packet{Type: bt.DH5, LTAddr: 3, Payload: payload, Clock: 100}
	iq := mustBRWaveform(t, dev, pkt, 2e6)
	ch := channel.Default(18, 1.5)
	rx, _ := ch.Apply(iq)
	rcv, _ := NewReceiver(Sniffer, 2e6, dev)
	rep, err := rcv.ReceiveBR(rx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected || !rep.Result.OK {
		t.Fatalf("DH5 decode failed: %+v", rep)
	}
	if len(rep.Result.Payload) != 300 {
		t.Fatalf("payload %d bytes", len(rep.Result.Payload))
	}
}

func TestReceiveBRWrongLAPNotDetected(t *testing.T) {
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	other := bt.Device{LAP: 0x654321, UAP: 0x9A}
	pkt := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: []byte("x"), Clock: 0}
	iq := mustBRWaveform(t, dev, pkt, 0)
	ch := channel.Default(18, 1.5)
	rx, _ := ch.Apply(iq)
	rcv, _ := NewReceiver(Pixel, 0, other)
	rep, err := rcv.ReceiveBR(rx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected {
		t.Fatalf("detected packet with wrong LAP (sync errors %d)", rep.SyncErrors)
	}
}

func TestReceiveBRFailsAtVeryLowPower(t *testing.T) {
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pkt := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: []byte("x"), Clock: 0}
	iq := mustBRWaveform(t, dev, pkt, 0)
	// −60 dBm TX at 5 m ≈ −115 dBm received: far below the noise floor.
	ch := channel.Default(-60, 5)
	rx, _ := ch.Apply(iq)
	rcv, _ := NewReceiver(S6, 0, dev)
	rep, err := rcv.ReceiveBR(rx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected && rep.Result.OK {
		t.Fatal("decoded a packet buried far below the noise floor")
	}
}

func TestRSSITracksDistance(t *testing.T) {
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pkt := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: []byte("rssi"), Clock: 0}
	iq := mustBRWaveform(t, dev, pkt, 1e6)
	var prev float64 = math.Inf(1)
	for _, d := range []float64{0.2, 1.5, 4.5} {
		ch := channel.Default(18, d)
		rx, _ := ch.Apply(iq)
		rcv, _ := NewReceiver(Pixel, 1e6, dev)
		rcv.Profile.RSSIJitterDB = 0
		rep, err := rcv.ReceiveBR(rx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Detected {
			t.Fatalf("d=%g: not detected", d)
		}
		if rep.RSSIdBm >= prev {
			t.Fatalf("RSSI did not fall with distance: %g then %g", prev, rep.RSSIdBm)
		}
		prev = rep.RSSIdBm
	}
}

func TestS6ReportsLowerRSSIThanPixel(t *testing.T) {
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pkt := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: []byte("rssi"), Clock: 0}
	iq := mustBRWaveform(t, dev, pkt, 0)
	ch := channel.Default(18, 1.5)
	rx, _ := ch.Apply(iq)
	rssi := map[string]float64{}
	for _, p := range []Profile{Pixel, S6} {
		p.RSSIJitterDB = 0
		rcv, _ := NewReceiver(p, 0, dev)
		rep, _ := rcv.ReceiveBR(rx, 0)
		rssi[p.Name] = rep.RSSIdBm
	}
	diff := rssi["Pixel"] - rssi["S6"]
	if diff < 6 || diff > 10 {
		t.Fatalf("Pixel−S6 RSSI gap %.1f dB, want 6–10 (paper §4.2)", diff)
	}
}

func TestReceiveBLELoopback(t *testing.T) {
	adv := &bt.Advertisement{
		PDUType: bt.AdvNonconnInd,
		AdvA:    [6]byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF},
		Data:    []byte{0x02, 0x01, 0x06, 0x05, 0x09, 'B', 'l', 'u', 'e'},
	}
	air, err := adv.AirBits(38)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gfsk.BLEConfig()
	cfg.CenterOffset = 4e6
	iq, err := cfg.Modulate(air)
	if err != nil {
		t.Fatal(err)
	}
	ch := channel.Default(18, 1.5)
	rx, _ := ch.Apply(iq)
	rcv, _ := NewReceiver(Pixel, 4e6, bt.Device{})
	rep, err := rcv.ReceiveBLE(rx, 38)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected || !rep.Result.OK {
		t.Fatalf("BLE decode failed: %+v", rep)
	}
	if string(rep.Result.Payload) != string(adv.Data) {
		t.Fatalf("adv data %x", rep.Result.Payload)
	}
}

func TestProfileReporting(t *testing.T) {
	if !Pixel.Reporting(119) {
		t.Error("Pixel should always report")
	}
	if !IPhone.Reporting(100) {
		t.Error("iPhone should report before 110 s")
	}
	if IPhone.Reporting(115) {
		t.Error("iPhone should stop reporting after 110 s")
	}
}

func TestAdjacentChannelRejection(t *testing.T) {
	// A packet 3 MHz away must not decode on this channel.
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pkt := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: []byte("x"), Clock: 0}
	iq := mustBRWaveform(t, dev, pkt, 3e6)
	ch := channel.Default(18, 1.5)
	rx, _ := ch.Apply(iq)
	rcv, _ := NewReceiver(Pixel, 0, dev) // listening at the WiFi center
	rep, err := rcv.ReceiveBR(rx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected && rep.Result.OK {
		t.Fatal("decoded a packet 3 MHz off-channel")
	}
}

// DemodAtPhase is the synthesis-time rehearsal receiver: its decisions
// must be the production slicer's at every sample phase, and each must be
// the sign of the integral it returns beside it.
func TestDemodAtPhaseMatchesSlicer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	air := make([]byte, 400)
	for i := range air {
		air[i] = byte(rng.Intn(2))
	}
	cfg := gfsk.BLEConfig()
	cfg.CenterOffset = 2e6
	iq, err := cfg.Modulate(air)
	if err != nil {
		t.Fatal(err)
	}
	const sigma = 1.5 // wideband noise deep enough to flip some decisions
	for i := range iq {
		iq[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
	}
	rcv, err := NewReceiver(Profile{Name: "rehearsal"}, 2e6, bt.Device{})
	if err != nil {
		t.Fatal(err)
	}
	freq := rcv.discriminate(rcv.baseband(iq))
	rot := dsp.Rotations(-2e6, 20e6, len(iq)+30) // a table may run past the stream
	start := cfg.PayloadStart()
	wrong := 0
	for _, phase := range []int{0, 7, 13, 19} {
		bits, acc := rcv.DemodAtPhase(iq, phase, rot)
		want, margin := rcv.sliceBits(freq, phase)
		if len(bits) != len(want) || len(acc) != len(want) {
			t.Fatalf("phase %d: %d bits, %d integrals, slicer %d", phase, len(bits), len(acc), len(want))
		}
		for i := range want {
			if bits[i] != want[i] {
				t.Fatalf("phase %d bit %d: rehearsal %d, slicer %d", phase, i, bits[i], want[i])
			}
			if (bits[i] == 1) != (acc[i] > 0) || math.Abs(acc[i]) != margin[i] {
				t.Fatalf("phase %d bit %d: decision %d from integral %g (slicer margin %g)", phase, i, bits[i], acc[i], margin[i])
			}
		}
		if phase == start%20 {
			for i, b := range air {
				if bits[start/20+i] != b {
					wrong++
				}
			}
		}
	}
	if wrong == 0 {
		t.Fatal("noise flipped no decision at the true bit phase; the test is not exercising noisy decisions")
	}
	t.Logf("%d/%d noisy decisions wrong at the true bit phase", wrong, len(air))
}

func BenchmarkReceiveBRDH1(b *testing.B) {
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pkt := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: []byte("bench"), Clock: 0}
	air, _ := pkt.AirBits(dev)
	cfg := gfsk.BRConfig()
	iq, _ := cfg.Modulate(air)
	ch := channel.Default(18, 1.5)
	rx, _ := ch.Apply(iq)
	rcv, _ := NewReceiver(Pixel, 0, dev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rcv.ReceiveBR(rx, 0); err != nil {
			b.Fatal(err)
		}
	}
}
