package a2dp

import (
	"math"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/core"
	"bluefi/internal/gfsk"
	"bluefi/internal/l2cap"
	"bluefi/internal/sbc"
)

func sbcFrames(t *testing.T, n int) ([][]byte, sbc.Config) {
	t.Helper()
	cfg := sbc.DefaultConfig()
	enc, err := sbc.NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for i := 0; i < n; i++ {
		pcm := make([][]float64, 2)
		for ch := range pcm {
			pcm[ch] = make([]float64, cfg.SamplesPerFrame())
			for k := range pcm[ch] {
				pcm[ch][k] = 8000 * math.Sin(2*math.Pi*440/44100*float64(i*cfg.SamplesPerFrame()+k))
			}
		}
		f, err := enc.Encode(pcm)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	return frames, cfg
}

func TestMediaPacketRoundTrip(t *testing.T) {
	frames, _ := sbcFrames(t, 2)
	m := &MediaPacket{SequenceNumber: 7, Timestamp: 12345, SSRC: 0xB10EF1, Frames: frames}
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalMediaPacket(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.SequenceNumber != 7 || back.Timestamp != 12345 || back.SSRC != 0xB10EF1 {
		t.Fatalf("header fields %+v", back)
	}
	if len(back.Frames) != 2 {
		t.Fatalf("%d frames", len(back.Frames))
	}
	for i := range frames {
		if string(back.Frames[i]) != string(frames[i]) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}

func TestMediaPacketValidation(t *testing.T) {
	if _, err := (&MediaPacket{}).Marshal(); err == nil {
		t.Error("accepted zero frames")
	}
	if _, err := UnmarshalMediaPacket([]byte{1, 2, 3}); err == nil {
		t.Error("accepted short packet")
	}
	if _, err := UnmarshalMediaPacket(make([]byte, 20)); err == nil {
		t.Error("accepted bad RTP flags")
	}
}

func TestFramesPerPacket(t *testing.T) {
	cfg := sbc.DefaultConfig() // 152-byte frames
	// DH5: 339 − 4 − 13 = 322 → 2 frames.
	if got := FramesPerPacket(bt.DH5, cfg); got != 2 {
		t.Fatalf("DH5 fits %d frames, want 2", got)
	}
	// DH1: 27 bytes cannot carry one 152-byte frame.
	if got := FramesPerPacket(bt.DH1, cfg); got != 0 {
		t.Fatalf("DH1 fits %d frames, want 0", got)
	}
}

func newTestScheduler(t *testing.T, best []int) *Scheduler {
	t.Helper()
	s, err := NewScheduler(StreamConfig{
		Device:        bt.Device{LAP: 0x123456, UAP: 0x9A},
		WiFiCenterMHz: 2422,
		PacketType:    bt.DH5,
		BestChannels:  best,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchedulerAFHSetSize(t *testing.T) {
	s := newTestScheduler(t, nil)
	// §4.7: AFH restricts to the ~20 channels inside one WiFi channel.
	if s.AFHSize() < 18 || s.AFHSize() > 20 {
		t.Fatalf("AFH set size %d, want ≈20", s.AFHSize())
	}
}

func TestSchedulerSlotsAndChannels(t *testing.T) {
	s := newTestScheduler(t, nil)
	frames, _ := sbcFrames(t, 2)
	prevClock := bt.Clock(0)
	first := true
	for i := 0; i < 30; i++ {
		segs, err := s.ScheduleMedia(frames, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range segs {
			if !sp.Clock.IsMasterTxSlot() {
				t.Fatal("packet scheduled off a master TX slot")
			}
			if !first && uint32(sp.Clock)-uint32(prevClock) < uint32(2*bt.DH5.Slots()) {
				t.Fatalf("packets overlap: clocks %d then %d", prevClock, sp.Clock)
			}
			first = false
			prevClock = sp.Clock
			f := sp.ChannelMHz
			if f < 2412 || f > 2432 {
				t.Fatalf("hop to %g MHz outside WiFi channel 3", f)
			}
			if sp.Packet.Clock != uint32(sp.Clock) {
				t.Fatal("packet not stamped with its slot clock")
			}
		}
	}
}

func TestSchedulerBestChannelRestriction(t *testing.T) {
	best := []int{11, 15, 20} // inside WiFi channel 3's AFH set
	s := newTestScheduler(t, best)
	frames, _ := sbcFrames(t, 2)
	allowed := map[int]bool{11: true, 15: true, 20: true}
	skippedTotal := 0
	for i := 0; i < 40; i++ {
		segs, err := s.ScheduleMedia(frames, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range segs {
			if !allowed[sp.Channel] {
				t.Fatalf("scheduled on channel %d outside the best set", sp.Channel)
			}
			skippedTotal += sp.SkippedSlots
		}
	}
	if skippedTotal == 0 {
		t.Fatal("restriction to 3 of 20 channels must skip some slots")
	}
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(StreamConfig{WiFiCenterMHz: 5000, PacketType: bt.DH5}); err == nil {
		t.Error("accepted a 5 GHz WiFi channel")
	}
	if _, err := NewScheduler(StreamConfig{WiFiCenterMHz: 2422, PacketType: bt.DH5, BestChannels: []int{70}}); err == nil {
		t.Error("accepted a best channel outside the AFH set")
	}
}

func TestScheduleMediaSegmentsOversize(t *testing.T) {
	s, err := NewScheduler(StreamConfig{
		Device: bt.Device{LAP: 1}, WiFiCenterMHz: 2422, PacketType: bt.DH1,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sbcFrames(t, 1) // one 152-byte frame > DH1 capacity
	segs, err := s.ScheduleMedia(frames, 128)
	if err != nil {
		t.Fatal(err)
	}
	// 152+13+4 = 169 bytes over 27-byte DH1 payloads → 7 segments, the
	// first marked as an L2CAP start, the rest continuations.
	if len(segs) != 7 {
		t.Fatalf("%d segments, want 7", len(segs))
	}
	if segs[0].Packet.LLID != 0b10 {
		t.Fatalf("first segment LLID %b", segs[0].Packet.LLID)
	}
	for _, sp := range segs[1:] {
		if sp.Packet.LLID != 0b01 {
			t.Fatalf("continuation LLID %b", sp.Packet.LLID)
		}
	}
	// Reassembly across segments recovers the media packet.
	var r l2cap.Reassembler
	var frame *l2cap.Frame
	for _, sp := range segs {
		f, err := r.Push(sp.Packet.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if f != nil {
			frame = f
		}
	}
	if frame == nil {
		t.Fatal("segments did not reassemble")
	}
	if _, err := UnmarshalMediaPacket(frame.Payload); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndMediaOverL2CAP(t *testing.T) {
	frames, cfg := sbcFrames(t, 2)
	m := &MediaPacket{SequenceNumber: 1, Frames: frames}
	payload, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	lf := &l2cap.Frame{CID: l2cap.CIDDynamicFirst, Payload: payload}
	wire, _ := lf.Marshal()
	var r l2cap.Reassembler
	back, err := r.Push(wire)
	if err != nil || back == nil {
		t.Fatalf("reassembly failed: %v", err)
	}
	media, err := UnmarshalMediaPacket(back.Payload)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sbc.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range media.Frames {
		if _, err := dec.Decode(f); err != nil {
			t.Fatalf("SBC frame failed to decode after transport: %v", err)
		}
	}
}

// SynthesizeGated ships a segment once the rehearsal predicts its FEC
// decodes it, re-slotting at most maxReslots times; a synthesizer that
// rehearses nothing predicts no failure and never re-slots.
func TestSynthesizeGated(t *testing.T) {
	s, err := NewScheduler(StreamConfig{
		Device:        bt.Device{LAP: 0x2A96EF, UAP: 0x5D},
		WiFiCenterMHz: 2422,
		PacketType:    bt.DM1,
		BestChannels:  []int{16, 24, 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sbcFrames(t, 1)
	segs, err := s.ScheduleMedia(frames, 128)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Mode = core.RealTime
	opts.GFSK = gfsk.BRConfig()
	gated, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.PSDUOnly = true // no rehearsal: nothing predicts a failure
	blind, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range segs[:3] {
		got, res, reslots, err := s.SynthesizeGated(gated, sp)
		if err != nil {
			t.Fatal(err)
		}
		if reslots > maxReslots || (!res.RehearsalDecodes && reslots != maxReslots) {
			t.Errorf("segment %d: %d re-slots, decodes %v", i, reslots, res.RehearsalDecodes)
		}
		if moved := got.Clock != sp.Clock; moved != (reslots > 0) || got.Packet.Clock != uint32(got.Clock) {
			t.Errorf("segment %d: %d re-slots moved clock %d → %d (packet clock %d)", i, reslots, sp.Clock, got.Clock, got.Packet.Clock)
		}
		_, res, reslots, err = s.SynthesizeGated(blind, sp)
		if err != nil {
			t.Fatal(err)
		}
		if reslots != 0 || !res.RehearsalDecodes {
			t.Errorf("segment %d without rehearsal: %d re-slots, decodes %v", i, reslots, res.RehearsalDecodes)
		}
	}
}
