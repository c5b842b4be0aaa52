package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bluefi"
	"bluefi/internal/a2dp"
	"bluefi/internal/bt"
	"bluefi/internal/l2cap"
	"bluefi/internal/sbc"
	"bluefi/internal/scan"
)

// The a2dp workload: two A2DP sessions multiplexed over one real-time pool
// by the SessionManager, each a closed loop that sends a media packet,
// decodes every segment it got back, then sends the next. It fans
// deadline-stamped jobs out from concurrent sessions through SBC, the
// slot scheduler and its re-slots, the real-time FEC, the governor and the
// shed budget — none of which the beacon workload touches.

const (
	a2dpSessions = 2
	// dilation stretches the 625 µs slot so that host-speed synthesis is
	// judged against a deadline it can meet: a DM1 segment's budget is
	// 2 slots × 625 µs × dilation.
	dilation = 1024
	// a2dpServiceSlots pins the admission projection's service time, so
	// whether both sessions are admitted is a constant of the workload.
	a2dpServiceSlots = 0.1
	// brChannel carries the warm-up BR packets: 2426 MHz, inside WiFi
	// channel 3.
	brChannel = 24
)

// codec is the paper's SBC setting, 44.1 kHz stereo, 16 blocks, 8
// subbands, bitpool 35; every decoded frame must carry it.
var codec = sbc.DefaultConfig()

// a2dpSBC is codec as the public API takes it.
var a2dpSBC = bluefi.SBCConfig{
	SampleRateHz: codec.Freq.Hz(),
	Blocks:       codec.Blocks,
	Stereo:       codec.Mode == sbc.Stereo,
	Subbands:     codec.Subbands,
	Bitpool:      codec.Bitpool,
}

// a2dpDevices are the sessions' Bluetooth devices.
var a2dpDevices = [a2dpSessions]bluefi.Device{{LAP: 0x2A96EF, UAP: 0x5D}, {LAP: 0x8C1F30, UAP: 0xB4}}

// a2dpRig is one set-up's serving objects.
type a2dpRig struct {
	pool     *bluefi.Pool
	manager  *bluefi.SessionManager
	sessions []*bluefi.Session
	reg      *bluefi.Telemetry
}

// a2dpClient is one session's closed loop and what it observed.
type a2dpClient struct {
	id   int
	s    *bluefi.Session
	dev  bluefi.Device
	tone float64 // Hz

	latMs                   []float64
	submits                 []time.Time
	sends, shipped, dropped int
	segments, decoded       int
	problems                []error

	lastSeq int // -1 before the first decoded start segment
	ssrc    uint32
}

func (c *a2dpClient) fail(err error) {
	c.problems = append(c.problems, fmt.Errorf("session %d: %w", c.id, err))
}

// pcm returns media packet n's PCM: a tone at the session's frequency,
// continuous across packets.
func (c *a2dpClient) pcm(n int) [][]float64 {
	st := c.s.Stream()
	per := st.SamplesPerSend()
	out := make([][]float64, st.Channels())
	for ch := range out {
		out[ch] = make([]float64, per)
		for i := range out[ch] {
			t := float64(n*per+i) / float64(a2dpSBC.SampleRateHz)
			out[ch][i] = 8000 * math.Sin(2*math.Pi*c.tone*t+float64(ch))
		}
	}
	return out
}

// loop sends media packets back to back until deadline.
func (c *a2dpClient) loop(b *bench, deadline time.Time, air *airStats) {
	for n := 0; now().Before(deadline); n++ {
		pcm := c.pcm(n)
		root := b.tr.begin(int64(n))
		t0 := now()
		txs, err := c.s.Send(pcm)
		t1 := now()
		b.tr.record("Session.Send", root, root, t0, t1)
		c.sends++
		switch {
		case err != nil:
			c.fail(fmt.Errorf("Session.Send: %w", err))
			continue
		case txs == nil: // shed by the governor
			c.dropped++
			continue
		}
		c.shipped++
		for range txs {
			c.submits = append(c.submits, t0)
		}
		c.audit(b, root, n, txs, air)
		end := now()
		b.tr.record("request", root, 0, t0, end)
		c.latMs = append(c.latMs, ms(end.Sub(t0)))
	}
}

// audit puts every segment on the air and checks what the scanner
// decodes: each segment's CRC, the L2CAP and AVDTP headers in the start
// segment, the SBC header in the second, and — when every segment
// decoded — the reassembled media packet down to the SBC frame CRC.
func (c *a2dpClient) audit(b *bench, root int64, n int, txs []*bluefi.AudioTransmission, air *airStats) {
	payloads := make([][]byte, len(txs))
	complete := true
	for i, tx := range txs {
		pkt := tx.Packet
		out, err := receive(b.tr, root, root, air, pkt.PSDU, pkt.MCS, pkt.RehearsalMismatches, capture{
			kind: scan.KindBR, channel: tx.BTChannel, offsetHz: pkt.ChannelOffsetHz(), clk: tx.Clock, dev: bt.Device(c.dev),
		}, derive(b.cfg.seed, streamLink, uint64(c.id)<<40|uint64(n)<<8|uint64(i)))
		c.segments++
		if err != nil {
			c.fail(err)
			complete = false
			continue
		}
		if !out.Decoded {
			complete = false
			continue
		}
		c.decoded++
		payloads[i] = out.Payload
	}
	t := now()
	if err := c.check(payloads, complete); err != nil {
		c.fail(fmt.Errorf("media packet %d: %w", n, err))
	}
	b.tr.record("bench.check", root, root, t, now())
}

// check validates the decoded segments of one media packet; nil payloads
// did not decode.
func (c *a2dpClient) check(payloads [][]byte, complete bool) error {
	if p := payloads[0]; p != nil {
		// L2CAP header, then the AVDTP media header: V=2, PT 96, sequence,
		// timestamp, SSRC, SBC frame count.
		if len(p) < 4+a2dp.MediaHeaderLen {
			return fmt.Errorf("start segment of %d bytes", len(p))
		}
		if got := int(binary.LittleEndian.Uint16(p)); !frameLength(got - a2dp.MediaHeaderLen) {
			return fmt.Errorf("L2CAP length %d fits no SBC frame of the stream", got)
		}
		h := p[4:]
		seq := int(binary.BigEndian.Uint16(h[2:]))
		ts := binary.BigEndian.Uint32(h[4:])
		ssrc := binary.BigEndian.Uint32(h[8:])
		switch {
		case h[0] != 0x80 || h[1] != 96 || h[12]&0x0F != 1:
			return fmt.Errorf("media header % x", h[:a2dp.MediaHeaderLen])
		case seq <= c.lastSeq:
			return fmt.Errorf("sequence %d after %d", seq, c.lastSeq)
		case ts != uint32(seq*codec.SamplesPerFrame()):
			return fmt.Errorf("timestamp %d for sequence %d", ts, seq)
		case c.lastSeq >= 0 && ssrc != c.ssrc:
			return fmt.Errorf("SSRC %#x changed from %#x", ssrc, c.ssrc)
		}
		c.lastSeq, c.ssrc = seq, ssrc
	}
	if len(payloads) > 1 && payloads[1] != nil {
		got, err := sbc.ParseHeader(payloads[1])
		if err != nil {
			return err
		}
		// The governor may lower the bitpool; nothing else may change.
		lowered := got.Bitpool <= codec.Bitpool
		got.Bitpool = codec.Bitpool
		if !lowered || got != codec {
			return fmt.Errorf("SBC header %+v, want %+v", got, codec)
		}
	}
	if !complete {
		return nil
	}
	var r l2cap.Reassembler
	var frame *l2cap.Frame
	for _, p := range payloads {
		f, err := r.Push(p)
		if err != nil {
			return err
		}
		if f != nil {
			frame = f
		}
	}
	if frame == nil || r.Pending() != 0 {
		return fmt.Errorf("segments do not reassemble into one L2CAP frame")
	}
	media, err := a2dp.UnmarshalMediaPacket(frame.Payload)
	if err != nil {
		return err
	}
	for _, f := range media.Frames {
		hdr, err := sbc.ParseHeader(f)
		if err != nil {
			return err
		}
		dec, err := sbc.NewDecoder(hdr)
		if err != nil {
			return err
		}
		if _, err := dec.Decode(f); err != nil {
			return err
		}
	}
	return nil
}

// frameLength reports whether n bytes is one SBC frame of the stream at
// its configured bitpool or one the governor stepped down to.
func frameLength(n int) bool {
	cfg := codec
	for ; cfg.Bitpool >= 2; cfg.Bitpool-- {
		if cfg.FrameBytes() == n {
			return true
		}
	}
	return false
}

// warmBR is the fixed warm-up batch for the BR synthesis path.
func warmBR(n int) []bluefi.BatchJob {
	jobs := make([]bluefi.BatchJob, n)
	for i := range jobs {
		jobs[i] = bluefi.BatchJob{BR: &bluefi.BRJob{
			Device:    bluefi.Device{LAP: 0x9E8B33, UAP: 0x01},
			Packet:    &bluefi.BasebandPacket{Type: bluefi.DM1, LTAddr: 1, LLID: 2, Payload: []byte("bluefi warm-up!!!"), Clock: uint32(4 * i)},
			BTChannel: brChannel,
		}}
	}
	return jobs
}

func runA2DP(b *bench) (*outcome, error) {
	workers := b.workers()
	rng := rand.New(rand.NewSource(derive(b.cfg.seed, streamAudio, 0)))
	clients := make([]*a2dpClient, a2dpSessions)
	for k := range clients {
		clients[k] = &a2dpClient{
			id: k,
			// The device fixes a session's access code and hop sequence for
			// every segment it sends. With two seeded devices per run the
			// re-slot and decode rates, and so the synthesis cost, followed
			// the seed; the devices are fixed and the seed varies the audio.
			dev:     a2dpDevices[k],
			tone:    200 + 1800*rng.Float64(),
			lastSeq: -1,
		}
	}
	build := func() (*a2dpRig, error) {
		rig := &a2dpRig{reg: b.telemetry()}
		pool, err := bluefi.NewPool(bluefi.Options{Mode: bluefi.RealTime, EDF: true, Telemetry: rig.reg}, workers)
		if err != nil {
			return nil, err
		}
		rig.pool = pool
		for _, r := range pool.SynthesizeBatch(warmBR(workers)) {
			if r.Err != nil {
				pool.Close()
				return nil, fmt.Errorf("warm-up: %w", r.Err)
			}
		}
		rig.manager, err = pool.NewSessionManager(bluefi.SessionManagerConfig{ServiceSlots: a2dpServiceSlots})
		if err != nil {
			pool.Close()
			return nil, err
		}
		for _, c := range clients {
			s, err := rig.manager.Admit(bluefi.SessionConfig{
				ID: fmt.Sprintf("session%d", c.id),
				Audio: bluefi.AudioConfig{
					Device:          c.dev,
					PacketType:      bluefi.DM1,
					BestChannels:    3,
					SBC:             a2dpSBC,
					FramesPerPacket: 1,
					SlotBudget:      2 * 625 * time.Microsecond * dilation,
				},
			})
			if err != nil {
				pool.Close()
				return nil, err
			}
			rig.sessions = append(rig.sessions, s)
		}
		return rig, nil
	}
	rig, setups, err := setUp(build, func(r *a2dpRig) { r.pool.Close() })
	if err != nil {
		return nil, err
	}
	defer rig.pool.Close()
	for k, c := range clients {
		c.s = rig.sessions[k]
	}

	oc := &outcome{setups: setups, entry: []string{"Session.Send"}, air: &airStats{}}
	before := readCounts(rig.reg)
	b.smp.pool.Store(rig.pool)
	b.smp.measure(true)
	start := now()
	deadline := b.deadline(start)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *a2dpClient) {
			defer wg.Done()
			c.loop(b, deadline, oc.air)
		}(c)
	}
	wg.Wait()
	oc.elapsed = now().Sub(start)
	b.smp.measure(false)
	b.smp.pool.Store(nil)

	segsPerPacket := (4 + a2dp.MediaHeaderLen + codec.FrameBytes() + bt.DM1.MaxPayload() - 1) / bt.DM1.MaxPayload()
	var submits []time.Time
	for _, c := range clients {
		for _, v := range c.latMs {
			oc.addLatency(v)
		}
		for _, p := range c.problems {
			oc.fail(p)
		}
		oc.attempted += c.sends
		oc.served += c.shipped
		oc.good += c.decoded
		oc.units += c.segments + c.dropped*segsPerPacket
		submits = append(submits, c.submits...)
	}
	var shipped, dropped, misses int
	for _, rep := range rig.manager.Sessions() {
		shipped += int(rep.Shipped)
		dropped += int(rep.Dropped)
		misses += int(rep.DeadlineMisses)
	}
	audio := float64(oc.served*codec.SamplesPerFrame()) / float64(a2dpSBC.SampleRateHz)
	oc.detail("a2dp.realtime_factor", audio/oc.elapsed.Seconds(), "s/s", oc.served, "audio seconds shipped per wall-clock second, both sessions")
	oc.detail("a2dp.shipped_ratio", ratio(float64(shipped), float64(shipped+dropped)), "ratio", shipped+dropped, "media packets shipped ÷ offered")
	oc.detail("session.deadline_misses", float64(misses), "count", oc.units, fmt.Sprintf("slot budget 2 × 625 µs × D, D = %d", dilation))
	oc.detail("session.dropped", float64(dropped), "count", shipped+dropped, "")
	oc.detail("session.shed_grants", float64(rig.manager.Report().Budget.Grants), "count", shipped+dropped, "")
	b.ledger(oc, rig.reg, before, start, submits)
	return oc, nil
}
