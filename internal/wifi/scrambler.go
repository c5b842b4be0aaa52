// Package wifi implements the 802.11n (High Throughput) physical layer for
// 20 MHz, single-spatial-stream operation: the complete transmit chain of
// Fig. 1 in the BlueFi paper (scrambler, BCC encoder with puncturing,
// interleaver, QAM mapping, pilot insertion, IFFT, cyclic prefix and OFDM
// windowing, mixed-format preamble) and the matching receive chain used to
// verify that synthesized PSDUs round-trip exactly.
//
// Everything follows IEEE Std 802.11-2016 clauses 17 (legacy OFDM, used by
// the preamble SIG fields) and 19 (HT). Only features BlueFi depends on are
// implemented — one spatial stream, BCC coding (not LDPC), 20 MHz — plus
// 256-QAM as the 802.11ac extension studied in §5.1 of the paper.
//
//bluefi:strict
package wifi

// Scrambler is the 802.11 frame-synchronous scrambler: a 7-bit LFSR with
// polynomial x^7 + x^4 + 1. The same structure descrambles, since
// scrambling is an XOR with the LFSR output stream.
type Scrambler struct {
	state uint8 // 7 bits, x1 in bit 0 .. x7 in bit 6
}

// NewScrambler returns a scrambler seeded with the 7-bit initial state.
// Seed 0 would generate the all-zero sequence and is what the standard
// forbids; it is accepted here because BlueFi's chip models need to express
// "scrambling disabled" (Atheros GEN_SCRAMBLER cleared behaves as a fixed
// trivial sequence).
func NewScrambler(seed uint8) *Scrambler {
	return &Scrambler{state: seed & 0x7F}
}

// NextBit advances the LFSR one step and returns the output bit.
func (s *Scrambler) NextBit() byte {
	// Feedback is x7 XOR x4.
	fb := ((s.state >> 6) ^ (s.state >> 3)) & 1
	s.state = ((s.state << 1) | fb) & 0x7F
	return fb
}

// Scramble XORs the bit slice with the LFSR stream in place and returns it.
func (s *Scrambler) Scramble(b []byte) []byte {
	for i := range b {
		b[i] = (b[i] ^ s.NextBit()) & 1
	}
	return b
}

// Sequence returns the next n output bits without data (useful for pinning
// the SERVICE field in the scrambled domain).
func (s *Scrambler) Sequence(n int) []byte {
	out := make([]byte, n)
	s.SequenceInto(out)
	return out
}

// SequenceInto fills dst with the next len(dst) LFSR output bits.
func (s *Scrambler) SequenceInto(dst []byte) {
	for i := range dst {
		dst[i] = s.NextBit()
	}
}

// ScrambleCopy scrambles a copy of b with the given seed, leaving b intact.
func ScrambleCopy(b []byte, seed uint8) []byte {
	s := NewScrambler(seed)
	out := make([]byte, len(b))
	copy(out, b)
	return s.Scramble(out)
}

// PilotPolarity is the 127-element pilot polarity sequence p₀…p₁₂₆ of
// 802.11 (17.3.5.10): the scrambler output with the all-ones seed, mapped
// 0→+1, 1→−1. Index with n mod 127.
var PilotPolarity = func() [127]int8 {
	var p [127]int8
	s := NewScrambler(0x7F)
	for i := range p {
		if s.NextBit() == 1 {
			p[i] = -1
		} else {
			p[i] = 1
		}
	}
	return p
}()
