// Package a2dp implements the audio-streaming path of the paper's §4.7
// demo: AVDTP media packets (an RTP-style header carrying SBC frames)
// wrapped in L2CAP, and a real-time stream scheduler that allocates
// Bluetooth time slots, follows the AFH-restricted hop sequence inside a
// single WiFi channel, picks the three best Bluetooth channels for
// multi-slot audio packets, and stamps each packet with the clock value
// that whitens it.
package a2dp

import (
	"fmt"
	"sync"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/core"
	"bluefi/internal/l2cap"
	"bluefi/internal/obs"
	"bluefi/internal/sbc"
)

// MediaHeaderLen is the RTP-style AVDTP media packet header size: V/P/X/CC,
// M/PT, sequence number, timestamp, SSRC — 12 bytes — plus the one-byte
// SBC payload header (fragmentation/frame count).
const MediaHeaderLen = 13

// MediaPacket is one AVDTP media packet carrying whole SBC frames.
type MediaPacket struct {
	SequenceNumber uint16
	Timestamp      uint32
	SSRC           uint32
	Frames         [][]byte
}

// Marshal builds the RTP-style packet.
func (m *MediaPacket) Marshal() ([]byte, error) {
	if len(m.Frames) == 0 || len(m.Frames) > 15 {
		return nil, fmt.Errorf("a2dp: %d SBC frames per packet out of range 1–15", len(m.Frames))
	}
	out := make([]byte, 0, 64)
	out = append(out, 0x80) // V=2
	out = append(out, 96)   // dynamic payload type
	out = append(out, byte(m.SequenceNumber>>8), byte(m.SequenceNumber))
	out = append(out, byte(m.Timestamp>>24), byte(m.Timestamp>>16), byte(m.Timestamp>>8), byte(m.Timestamp))
	out = append(out, byte(m.SSRC>>24), byte(m.SSRC>>16), byte(m.SSRC>>8), byte(m.SSRC))
	out = append(out, byte(len(m.Frames))) // SBC payload header: frame count
	for _, f := range m.Frames {
		out = append(out, f...)
	}
	return out, nil
}

// UnmarshalMediaPacket parses a media packet and splits its SBC frames
// using the frame size from the first frame's header.
func UnmarshalMediaPacket(data []byte) (*MediaPacket, error) {
	if len(data) < MediaHeaderLen {
		return nil, fmt.Errorf("a2dp: %d bytes too short for a media header", len(data))
	}
	if data[0] != 0x80 {
		return nil, fmt.Errorf("a2dp: unsupported RTP flags %#02x", data[0])
	}
	m := &MediaPacket{
		SequenceNumber: uint16(data[2])<<8 | uint16(data[3]),
		Timestamp:      uint32(data[4])<<24 | uint32(data[5])<<16 | uint32(data[6])<<8 | uint32(data[7]),
		SSRC:           uint32(data[8])<<24 | uint32(data[9])<<16 | uint32(data[10])<<8 | uint32(data[11]),
	}
	count := int(data[12] & 0x0F)
	body := data[MediaHeaderLen:]
	if count == 0 {
		return nil, fmt.Errorf("a2dp: zero SBC frames")
	}
	cfg, err := sbc.ParseHeader(body)
	if err != nil {
		return nil, fmt.Errorf("a2dp: first SBC frame: %w", err)
	}
	size := cfg.FrameBytes()
	if len(body) < count*size {
		return nil, fmt.Errorf("a2dp: %d bytes for %d frames of %d", len(body), count, size)
	}
	for i := 0; i < count; i++ {
		m.Frames = append(m.Frames, append([]byte{}, body[i*size:(i+1)*size]...))
	}
	return m, nil
}

// StreamConfig parameterizes the scheduler.
type StreamConfig struct {
	// Device provides the hop kernel inputs and whitening context.
	Device bt.Device
	// WiFiCenterMHz anchors the AFH channel set (§4.7: a single WiFi
	// channel, frequency hopping via subcarriers within it).
	WiFiCenterMHz float64
	// PacketType carries the audio (DH5 in the paper's 5-slot demo).
	PacketType bt.PacketType
	// BestChannels restricts audio transmission to the N best Bluetooth
	// channels inside the WiFi channel (3 in §4.7).
	BestChannels []int
	// MediaCID is the L2CAP channel of the AVDTP stream.
	MediaCID uint16
	// Telemetry, when non-nil, receives scheduler counters: slots
	// allocated, hop decisions skipped outside the best-channel set, and
	// rehearsal-gated reslots.
	Telemetry *obs.Registry
}

// schedMetrics holds the scheduler's telemetry handles; nil disables
// them at one branch per record.
type schedMetrics struct {
	slots   *obs.Counter
	skipped *obs.Counter
	reslots *obs.Counter
}

func newSchedMetrics(r *obs.Registry) *schedMetrics {
	if r == nil {
		return nil
	}
	return &schedMetrics{
		slots: r.Counter("bluefi_a2dp_slots_total",
			"master-TX slots allocated to audio packets"),
		skipped: r.Counter("bluefi_a2dp_slots_skipped_total",
			"master-TX slots passed over because the hop landed outside the best-channel set"),
		reslots: r.Counter("bluefi_a2dp_reslots_total",
			"rehearsal-gated slot reallocations"),
	}
}

func (m *schedMetrics) observeSlot(skipped int) {
	if m == nil {
		return
	}
	m.slots.Inc()
	m.skipped.Add(int64(skipped))
}

func (m *schedMetrics) observeReslot() {
	if m == nil {
		return
	}
	m.reslots.Inc()
}

// Scheduler allocates time slots for audio packets along the AFH-mapped
// hop sequence. It is safe for concurrent use: when packet synthesis fans
// out over a worker pool, rehearsal-gated Reslot calls race from several
// goroutines, and each must atomically claim the next usable slot.
type Scheduler struct {
	mu sync.Mutex
	// cfg, hop, afh and ssrc are immutable after NewScheduler;
	// concurrent reads need no lock.
	cfg  StreamConfig
	hop  *bt.HopSelector
	afh  *bt.AFHMap
	ssrc uint32
	met  *schedMetrics

	best    map[int]bool // guarded by mu; mutable via SetBest (degradation)
	clk     bt.Clock     // guarded by mu
	seq     uint16       // guarded by mu
	tsTicks uint32       // guarded by mu
}

// ScheduledPacket is one audio transmission: the baseband packet, the
// slot's clock value and the Bluetooth channel (already AFH-mapped).
type ScheduledPacket struct {
	Packet     *bt.Packet
	Clock      bt.Clock
	Channel    int
	ChannelMHz float64
	// SkippedSlots counts master-TX slots passed over because the hop
	// landed outside the best-channel set.
	SkippedSlots int
}

// NewScheduler validates the configuration and builds the scheduler.
func NewScheduler(cfg StreamConfig) (*Scheduler, error) {
	if cfg.PacketType.Slots() < 1 {
		return nil, fmt.Errorf("a2dp: invalid packet type")
	}
	allowed := bt.ChannelsInWiFiBand(cfg.WiFiCenterMHz, 0.7)
	if len(allowed) == 0 {
		return nil, fmt.Errorf("a2dp: WiFi channel at %g MHz covers no Bluetooth channels", cfg.WiFiCenterMHz)
	}
	afh, err := bt.NewAFHMap(allowed)
	if err != nil {
		return nil, err
	}
	best := map[int]bool{}
	for _, ch := range cfg.BestChannels {
		if !afh.Allowed(ch) {
			return nil, fmt.Errorf("a2dp: best channel %d outside the AFH set", ch)
		}
		best[ch] = true
	}
	if cfg.MediaCID == 0 {
		cfg.MediaCID = l2cap.CIDDynamicFirst
	}
	return &Scheduler{
		cfg:  cfg,
		hop:  bt.NewHopSelector(cfg.Device),
		afh:  afh,
		best: best,
		ssrc: 0xB10EF1,
		met:  newSchedMetrics(cfg.Telemetry),
	}, nil
}

// AFHSize returns the AFH channel-set size (20 for a centred WiFi channel).
func (s *Scheduler) AFHSize() int { return s.afh.Size() }

// SetBest replaces the best-channel restriction — the degradation
// policy's channel-map knob: under interference the stream shrinks to
// the cleanest subset and restores the full set on recovery. Every
// channel must lie inside the AFH set; an empty slice lifts the
// restriction. Safe to call while packets are being scheduled: slots
// already handed out keep their channels, subsequent ScheduleMedia/Reslot
// calls see the new set.
func (s *Scheduler) SetBest(chs []int) error {
	nb := map[int]bool{}
	for _, ch := range chs {
		if !s.afh.Allowed(ch) {
			return fmt.Errorf("a2dp: best channel %d outside the AFH set", ch)
		}
		nb[ch] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.best = nb
	return nil
}

// BestChannels returns the active best-channel set, sorted.
func (s *Scheduler) BestChannels() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.best))
	for ch := 0; ch < bt.NumChannels; ch++ {
		if s.best[ch] {
			out = append(out, ch)
		}
	}
	return out
}

// Clock returns the scheduler's current Bluetooth clock.
func (s *Scheduler) Clock() bt.Clock {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clk
}

// nextSlotLocked advances to the next master-TX slot whose AFH-mapped
// hop lands on an acceptable channel and returns the slot's clock, its
// channel and the number of slots skipped. When BestChannels is empty
// every allowed channel qualifies. The caller holds s.mu.
func (s *Scheduler) nextSlotLocked() (bt.Clock, int, int) {
	skipped := 0
	for {
		if !s.clk.IsMasterTxSlot() {
			s.clk = s.clk.Advance(1)
			continue
		}
		ch := s.afh.Remap(s.hop.Channel(s.clk))
		if len(s.best) == 0 || s.best[ch] {
			s.met.observeSlot(skipped)
			return s.clk, ch, skipped
		}
		skipped++
		s.clk = s.clk.Advance(2) // next master-TX slot
	}
}

// ScheduleMedia packs SBC frames into one AVDTP media packet inside an
// L2CAP frame, segments it across as many baseband packets as the
// configured type requires (start fragment LLID 10, continuations 01 —
// how real A2DP feeds small ACL packets), and allocates a hop-sequence
// slot for each segment. A multi-slot packet keeps the frequency of its
// first slot (§4.7) and the master resumes on the next even slot.
func (s *Scheduler) ScheduleMedia(frames [][]byte, timestampTicks uint32) ([]*ScheduledPacket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	media := &MediaPacket{SequenceNumber: s.seq, Timestamp: s.tsTicks, SSRC: s.ssrc, Frames: frames}
	s.tsTicks += timestampTicks
	payload, err := media.Marshal()
	if err != nil {
		return nil, err
	}
	lf := &l2cap.Frame{CID: s.cfg.MediaCID, Payload: payload}
	wire, err := lf.Marshal()
	if err != nil {
		return nil, err
	}
	segments, err := l2cap.Segment(wire, s.cfg.PacketType.MaxPayload())
	if err != nil {
		return nil, err
	}
	s.seq++
	out := make([]*ScheduledPacket, 0, len(segments))
	for i, seg := range segments {
		clk, ch, skipped := s.nextSlotLocked()
		llid := byte(0b10)
		if i > 0 {
			llid = 0b01
		}
		pkt := &bt.Packet{
			Type:    s.cfg.PacketType,
			LTAddr:  1,
			Payload: seg,
			Clock:   uint32(clk),
			LLID:    llid,
			SEQN:    byte(i & 1),
		}
		adv := s.cfg.PacketType.Slots()
		if adv%2 == 1 {
			adv++
		}
		s.clk = clk.Advance(adv)
		out = append(out, &ScheduledPacket{
			Packet:       pkt,
			Clock:        clk,
			Channel:      ch,
			ChannelMHz:   bt.ChannelMHz(ch),
			SkippedSlots: skipped,
		})
	}
	return out, nil
}

// Reslot moves a scheduled packet to the next usable slot, whose
// different clock re-whitens the payload into a different waveform (see
// SynthesizeGated).
func (s *Scheduler) Reslot(sp *ScheduledPacket) *ScheduledPacket {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.observeReslot()
	clk, ch, skipped := s.nextSlotLocked()
	pkt := *sp.Packet
	pkt.Clock = uint32(clk)
	adv := s.cfg.PacketType.Slots()
	if adv%2 == 1 {
		adv++
	}
	s.clk = clk.Advance(adv)
	return &ScheduledPacket{
		Packet:       &pkt,
		Clock:        clk,
		Channel:      ch,
		ChannelMHz:   bt.ChannelMHz(ch),
		SkippedSlots: sp.SkippedSlots + skipped,
	}
}

// maxReslots bounds how often SynthesizeGated moves one packet: after
// that many re-slots the last synthesis ships regardless.
const maxReslots = 3

// SynthesizeGated synthesizes a scheduled packet with rehearsal-gated
// transmission: while the synthesis-time rehearsal predicts the packet's
// FEC cannot decode it (core.Result.RehearsalDecodes), it moves the
// packet to the next slot and synthesizes again. It returns the packet
// as finally scheduled, its synthesis result — Timings summed over every
// attempt — and the number of re-slots.
func (s *Scheduler) SynthesizeGated(syn *core.Synthesizer, sp *ScheduledPacket) (*ScheduledPacket, *core.Result, int, error) {
	var spent core.Timings
	for reslots := 0; ; reslots++ {
		air, err := sp.Packet.AirBits(s.cfg.Device)
		if err != nil {
			return nil, nil, reslots, err
		}
		res, err := syn.SynthesizeFEC(air, sp.ChannelMHz, sp.Packet.FECLayout(btrx.SyncErrorBudget))
		if err != nil {
			return nil, nil, reslots, err
		}
		spent.Add(res.Timings)
		if res.RehearsalDecodes || reslots == maxReslots {
			res.Timings = spent
			return sp, res, reslots, nil
		}
		sp = s.Reslot(sp)
	}
}

// FramesPerPacket returns how many SBC frames of the given config fit in
// one baseband packet after L2CAP and AVDTP overhead.
func FramesPerPacket(pt bt.PacketType, cfg sbc.Config) int {
	budget := pt.MaxPayload() - 4 - MediaHeaderLen // L2CAP + media header
	if budget < cfg.FrameBytes() {
		return 0
	}
	n := budget / cfg.FrameBytes()
	if n > 15 {
		n = 15
	}
	return n
}
