package bluefi_test

import (
	"math"
	"testing"

	"bluefi"
)

func testTone(stream *bluefi.AudioStream, phase int) [][]float64 {
	pcm := make([][]float64, stream.Channels())
	for ch := range pcm {
		pcm[ch] = make([]float64, stream.SamplesPerSend())
		for i := range pcm[ch] {
			pcm[ch][i] = 8000 * math.Sin(2*math.Pi*440/16000*float64(phase+i))
		}
	}
	return pcm
}

func TestAudioStreamDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	syn, err := bluefi.New(bluefi.Options{Mode: bluefi.RealTime})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := syn.NewAudioStream(bluefi.AudioConfig{Device: bluefi.Device{LAP: 1, UAP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: DM5, stereo 44.1 kHz — one 152-byte frame fits the
	// 224-byte DM5 payload after AVDTP/L2CAP overhead.
	if stream.Channels() != 2 {
		t.Fatalf("channels %d", stream.Channels())
	}
	if stream.SamplesPerSend() != 128 {
		t.Fatalf("samples per send %d, want 128", stream.SamplesPerSend())
	}
	txs, err := stream.Send(testTone(stream, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 {
		t.Fatalf("%d transmissions, want 1 (fits a DM5)", len(txs))
	}
	if txs[0].Packet.MCS != 5 {
		t.Fatalf("MCS %d, want 5 (real-time)", txs[0].Packet.MCS)
	}
	if txs[0].Packet.FrequencyMHz < 2412 || txs[0].Packet.FrequencyMHz > 2432 {
		t.Fatalf("hop to %g MHz outside WiFi channel 3", txs[0].Packet.FrequencyMHz)
	}
}

func TestAudioStreamSegmentation(t *testing.T) {
	syn, _ := bluefi.New(bluefi.Options{Mode: bluefi.RealTime})
	stream, err := syn.NewAudioStream(bluefi.AudioConfig{
		Device:          bluefi.Device{LAP: 3, UAP: 4},
		PacketType:      bluefi.DM1,
		SBC:             bluefi.SBCConfig{SampleRateHz: 16000, Blocks: 4, Subbands: 4, Bitpool: 8},
		FramesPerPacket: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs, err := stream.Send(testTone(stream, 0))
	if err != nil {
		t.Fatal(err)
	}
	// 10-byte frame + 13 AVDTP + 4 L2CAP = 27 bytes over 17-byte DM1
	// payloads → 2 segments with distinct slots.
	if len(txs) != 2 {
		t.Fatalf("%d segments, want 2", len(txs))
	}
	if txs[0].Clock == txs[1].Clock {
		t.Fatal("segments share a slot")
	}
}

func TestAudioStreamValidation(t *testing.T) {
	syn, _ := bluefi.New(bluefi.Options{})
	if _, err := syn.NewAudioStream(bluefi.AudioConfig{
		SBC: bluefi.SBCConfig{SampleRateHz: 12345, Blocks: 4, Subbands: 4, Bitpool: 8},
	}); err == nil {
		t.Error("accepted unknown sample rate")
	}
	if _, err := syn.NewAudioStream(bluefi.AudioConfig{PacketType: 99}); err == nil {
		t.Error("accepted invalid packet type")
	}
	stream, err := syn.NewAudioStream(bluefi.AudioConfig{Device: bluefi.Device{LAP: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Send([][]float64{make([]float64, 3)}); err == nil {
		t.Error("accepted wrong channel count")
	}
	bad := [][]float64{make([]float64, 3), make([]float64, 3)}
	if _, err := stream.Send(bad); err == nil {
		t.Error("accepted wrong sample count")
	}
}

func TestRawGFSK(t *testing.T) {
	syn, _ := bluefi.New(bluefi.Options{})
	air := make([]byte, 100)
	for i := range air {
		air[i] = byte(i & 1)
	}
	for _, ble := range []bool{false, true} {
		pkt, err := syn.RawGFSK(air, 2426, ble)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkt.PSDU) == 0 || pkt.BLEChannel != -1 {
			t.Fatalf("ble=%v: %d-byte PSDU, BLEChannel %d", ble, len(pkt.PSDU), pkt.BLEChannel)
		}
	}
	if _, err := syn.RawGFSK(air, 2480, false); err == nil {
		t.Error("accepted frequency outside the WiFi channel")
	}
	if _, err := syn.RawGFSK(nil, 2426, false); err == nil {
		t.Error("accepted empty air bits")
	}
}

func TestSimulateReceiverProfiles(t *testing.T) {
	syn, _ := bluefi.New(bluefi.Options{})
	b := bluefi.IBeacon{Major: 1}
	pkt, err := syn.Beacon(b.ADStructures(), [6]byte{1, 2, 3, 4, 5, 6}, 38)
	if err != nil {
		t.Fatal(err)
	}
	for _, who := range []string{"", "Pixel", "S6", "iPhone", "FTS4BT"} {
		if _, err := syn.Simulate(pkt, bluefi.SimulationParams{Receiver: who, Seed: 1}); err != nil {
			t.Fatalf("%q: %v", who, err)
		}
	}
	if _, err := syn.Simulate(pkt, bluefi.SimulationParams{Receiver: "Nokia3310"}); err == nil {
		t.Error("accepted unknown receiver")
	}
	// BR packets must go through SimulateBR.
	dev := bluefi.Device{LAP: 1, UAP: 2}
	br, err := syn.BRPacket(dev, &bluefi.BasebandPacket{Type: bluefi.DM1, Payload: []byte("x")}, 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := syn.Simulate(br, bluefi.SimulationParams{}); err == nil {
		t.Error("Simulate accepted a BR packet")
	}
	// ...and advertising packets through Simulate.
	if _, err := syn.SimulateBR(pkt, dev, 0, bluefi.SimulationParams{}); err == nil {
		t.Error("SimulateBR accepted a BLE advertising packet")
	}
	for _, who := range []string{"", "Pixel", "S6", "iPhone", "FTS4BT"} {
		if _, err := syn.SimulateBR(br, dev, 0, bluefi.SimulationParams{Receiver: who, Seed: 1}); err != nil {
			t.Fatalf("BR %q: %v", who, err)
		}
	}
	if _, err := syn.SimulateBR(br, dev, 0, bluefi.SimulationParams{Receiver: "x"}); err == nil {
		t.Error("SimulateBR accepted unknown receiver")
	}
	// Simulate transmits through the chip, so a frame the generic part's
	// unpatched driver refuses (over 2304 bytes, §3) never reaches the air.
	gen, err := bluefi.New(bluefi.Options{Chip: bluefi.Generic80211n})
	if err != nil {
		t.Fatal(err)
	}
	big, err := gen.Beacon(b.ADStructures(), [6]byte{1, 2, 3, 4, 5, 6}, 38)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.PSDU) <= 2304 {
		t.Fatalf("beacon PSDU is %d bytes, expected one over the generic chip's limit", len(big.PSDU))
	}
	if _, err := gen.Simulate(big, bluefi.SimulationParams{}); err == nil {
		t.Error("Simulate sent a frame the unpatched generic chip rejects")
	}
}
