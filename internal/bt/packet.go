package bt

import (
	"fmt"

	"bluefi/internal/bits"
)

// PacketType identifies the BR/EDR baseband packet types BlueFi uses.
type PacketType int

// Supported packet types: DM packets carry 2/3-FEC-protected payloads; DH
// packets trade FEC for capacity. The numeric TYPE codes follow spec
// Vol 2 Part B Table 6.2 (ACL logical transport).
const (
	DM1 PacketType = iota
	DH1
	DM3
	DH3
	DM5
	DH5
)

func (p PacketType) String() string {
	switch p {
	case DM1:
		return "DM1"
	case DH1:
		return "DH1"
	case DM3:
		return "DM3"
	case DH3:
		return "DH3"
	case DM5:
		return "DM5"
	case DH5:
		return "DH5"
	}
	return fmt.Sprintf("PacketType(%d)", int(p))
}

// typeCode returns the 4-bit TYPE field value.
func (p PacketType) typeCode() uint64 {
	switch p {
	case DM1:
		return 3
	case DH1:
		return 4
	case DM3:
		return 10
	case DH3:
		return 11
	case DM5:
		return 14
	case DH5:
		return 15
	}
	panic("bt: unknown packet type")
}

func packetTypeFromCode(code uint64) (PacketType, bool) {
	switch code {
	case 3:
		return DM1, true
	case 4:
		return DH1, true
	case 10:
		return DM3, true
	case 11:
		return DH3, true
	case 14:
		return DM5, true
	case 15:
		return DH5, true
	}
	return 0, false
}

// Slots returns the number of 625 µs time slots the packet occupies.
func (p PacketType) Slots() int {
	switch p {
	case DM1, DH1:
		return 1
	case DM3, DH3:
		return 3
	case DM5, DH5:
		return 5
	}
	panic("bt: unknown packet type")
}

// MaxPayload returns the user payload capacity in bytes (spec Table 6.10).
func (p PacketType) MaxPayload() int {
	switch p {
	case DM1:
		return 17
	case DH1:
		return 27
	case DM3:
		return 121
	case DH3:
		return 183
	case DM5:
		return 224
	case DH5:
		return 339
	}
	panic("bt: unknown packet type")
}

func (p PacketType) fecProtected() bool {
	return p == DM1 || p == DM3 || p == DM5
}

func (p PacketType) multiSlot() bool { return p.Slots() > 1 }

// Device identifies the addressing context of a Bluetooth link: the LAP
// selects the access code and the UAP seeds the HEC/CRC registers.
type Device struct {
	LAP uint32
	UAP byte
}

// Packet is one BR/EDR baseband packet prior to GFSK modulation.
type Packet struct {
	Type    PacketType
	LTAddr  byte // 3-bit logical transport address (1–7 for active slaves)
	Flow    byte
	ARQN    byte
	SEQN    byte
	Payload []byte
	Clock   uint32 // CLK at transmission, whitens header and payload
	// LLID marks the payload as an L2CAP start (0b10, the default when
	// zero) or continuation (0b01) fragment — how A2DP media packets
	// larger than one baseband packet travel.
	LLID byte
}

// AirBits assembles the full over-the-air bit stream at 1 Mb/s: access
// code (72 bits), FEC(1/3) whitened header (54 bits) and the whitened,
// optionally FEC(2/3)-coded payload with its payload header and CRC-16.
func (p *Packet) AirBits(dev Device) ([]byte, error) {
	if int(p.LTAddr) > 7 {
		return nil, fmt.Errorf("bt: LT_ADDR %d exceeds 3 bits", p.LTAddr)
	}
	if len(p.Payload) > p.Type.MaxPayload() {
		return nil, fmt.Errorf("bt: %v payload %d bytes exceeds %d", p.Type, len(p.Payload), p.Type.MaxPayload())
	}
	ac, err := AccessCode(dev.LAP, true)
	if err != nil {
		return nil, err
	}

	// Packet header: LT_ADDR(3) TYPE(4) FLOW(1) ARQN(1) SEQN(1) + HEC(8),
	// then rate-1/3 repetition FEC; whitened.
	hw := bits.NewWriter()
	hw.Uint(uint64(p.LTAddr), 3)
	hw.Uint(p.Type.typeCode(), 4)
	hw.Uint(uint64(p.Flow&1), 1)
	hw.Uint(uint64(p.ARQN&1), 1)
	hw.Uint(uint64(p.SEQN&1), 1)
	header10 := bits.Clone(hw.BitSlice())
	hw.Bits(HEC(header10, dev.UAP))
	header := bits.Repeat(hw.BitSlice(), 3)

	// Payload: payload header + data + CRC-16, FEC(2/3) for DM types.
	llid := uint64(p.LLID & 3)
	if llid == 0 {
		llid = 0b10 // start of an L2CAP message
	}
	pw := bits.NewWriter()
	if p.Type.multiSlot() {
		// Two-byte payload header: LLID(2) FLOW(1) LENGTH(10) UNDEF(3).
		pw.Uint(llid, 2)
		pw.Uint(1, 1)
		pw.Uint(uint64(len(p.Payload)), 10)
		pw.Uint(0, 3)
	} else {
		// One-byte payload header: LLID(2) FLOW(1) LENGTH(5).
		pw.Uint(llid, 2)
		pw.Uint(1, 1)
		pw.Uint(uint64(len(p.Payload)), 5)
	}
	pw.Bytes(p.Payload)
	pw.Bits(CRC16(bits.Clone(pw.BitSlice()), dev.UAP))
	body := bits.Clone(pw.BitSlice())
	if p.Type.fecProtected() {
		body = FEC23Encode(body)
	}

	// Whitening covers header and payload with one continuous sequence.
	wh := NewWhitener(p.Clock)
	whitened := wh.Whiten(append(bits.Clone(header), body...))

	out := make([]byte, 0, len(ac)+len(whitened))
	out = append(out, ac...)
	out = append(out, whitened...)
	if max := p.Type.Slots() * SlotBits; len(out) > max {
		return nil, fmt.Errorf("bt: %v packet of %d bits exceeds %d-slot budget %d", p.Type, len(out), p.Type.Slots(), max)
	}
	return out, nil
}

// FECBlock is a run of consecutive air bits a receiver decodes as one
// unit: it recovers the block when at most Correctable of its bits are
// wrong. Correctable 0 marks bits no code protects.
type FECBlock struct {
	Start, Len  int
	Correctable int
}

// FECLayout lists a packet's FEC blocks in air-bit order. Air bits in no
// block (the transmit pads around the packet) decide nothing.
type FECLayout []FECBlock

// FECLayout maps the packet's air bits onto the codes that protect them:
// the 72-bit access code, which a correlator accepts with up to
// syncErrors wrong bits; the header's 18 rate-1/3 repetition triples,
// one correctable bit each; and the payload — 15-bit FEC(2/3) codewords
// correcting one bit each for DM types, a single unprotected block for
// DH types.
func (p *Packet) FECLayout(syncErrors int) FECLayout {
	const acBits, headerBits = 72, 54
	layout := FECLayout{{Start: 0, Len: acBits, Correctable: syncErrors}}
	for i := acBits; i < acBits+headerBits; i += 3 {
		layout = append(layout, FECBlock{Start: i, Len: 3, Correctable: 1})
	}
	hdrBits := 8
	if p.Type.multiSlot() {
		hdrBits = 16
	}
	body := hdrBits + 8*len(p.Payload) + 16 // payload header, data, CRC-16
	start := acBits + headerBits
	if !p.Type.fecProtected() {
		return append(layout, FECBlock{Start: start, Len: body})
	}
	for i := 0; i < (body+9)/10; i++ {
		layout = append(layout, FECBlock{Start: start + 15*i, Len: 15, Correctable: 1})
	}
	return layout
}

// SlotBits is the bit budget of one 625 µs slot at 1 Mb/s. A packet must
// leave time for the hop turnaround, so usable occupancy is lower; the
// constant is used only as an upper bound.
const SlotBits = 625

// DecodeResult reports the outcome of parsing a packet from sliced bits.
type DecodeResult struct {
	OK          bool
	HeaderError bool
	CRCError    bool
	FECFailures int
	Type        PacketType
	LTAddr      byte
	LLID        byte
	Payload     []byte
}

// DecodeAirBits parses a bit stream that starts right after the access
// code trailer (i.e. at the whitened header) — the receiver has already
// correlated the access code. clk must match the transmitter's whitening
// clock. The stream may be longer than the packet.
func DecodeAirBits(stream []byte, dev Device, clk uint32) DecodeResult {
	if len(stream) < 54 {
		return DecodeResult{HeaderError: true}
	}
	wh := NewWhitener(clk)
	dewhitened := wh.Whiten(bits.Clone(stream))
	headerTriple := dewhitened[:54]
	header, err := bits.MajorityDecode(headerTriple, 3)
	if err != nil {
		return DecodeResult{HeaderError: true}
	}
	if !CheckHEC(header[:10], header[10:18], dev.UAP) {
		return DecodeResult{HeaderError: true}
	}
	r := bits.NewReader(header)
	lt := byte(r.Uint(3))
	code := r.Uint(4)
	ptype, ok := packetTypeFromCode(code)
	if !ok {
		return DecodeResult{HeaderError: true}
	}
	res := DecodeResult{Type: ptype, LTAddr: lt}

	body := dewhitened[54:]
	if ptype.fecProtected() {
		var fecFail int
		body, _, fecFail = FEC23Decode(body)
		res.FECFailures = fecFail
	}
	// Parse payload header.
	br := bits.NewReader(body)
	var plen int
	if ptype.multiSlot() {
		res.LLID = byte(br.Uint(2))
		br.Uint(1)
		plen = int(br.Uint(10))
		br.Uint(3)
	} else {
		res.LLID = byte(br.Uint(2))
		br.Uint(1)
		plen = int(br.Uint(5))
	}
	if br.Err() != nil || plen > ptype.MaxPayload() {
		res.CRCError = true
		return res
	}
	payload := br.Bytes(plen)
	crc := br.Bits(16)
	if br.Err() != nil {
		res.CRCError = true
		return res
	}
	hdrBits := 8
	if ptype.multiSlot() {
		hdrBits = 16
	}
	covered := body[:hdrBits+8*plen]
	if !CheckCRC16(covered, crc, dev.UAP) {
		res.CRCError = true
		return res
	}
	res.OK = true
	res.Payload = payload
	return res
}
