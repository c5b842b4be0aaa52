package viterbi

import "fmt"

// Real-time exact-match inversion of the rate-2/3 punctured 802.11 code
// (paper §2.7, "real-time decoder").
//
// At rate 2/3 the mother code's output pairs (A1,B1),(A2,B2) for two input
// bits become the transmitted triplet (A1,B1,A2) — B2 is stolen. Both
// generators tap the current input bit (their D⁰ coefficient is 1), so
//
//	A1 = u1 ⊕ fA(s)    B1 = u1 ⊕ fB(s)    A2 = u2 ⊕ fA(s′),  s′ = δ(s,u1)
//
// which makes the maps u1 ↦ A1, u1 ↦ B1 and u2 ↦ A2 bijections given the
// state. Per triplet BlueFi therefore reproduces A2 *and one of {A1,B1}*
// exactly by back-substitution; the third bit is whatever the encoder
// emits and may flip. The caller chooses which of A1/B1 to protect per
// triplet so the potential flip lands on a don't-care subcarrier. This is
// the same guarantee as the paper's lookup-table construction — at most
// one flip per three coded bits, never at a protected position — derived
// directly from the code algebra (the paper's "well-designed WiFi
// codebook" observation is exactly the D⁰ tap).
//
// The paper's 39-bit-group table formulation is an instance of the same
// identity batched three 13-bit interleaver columns at a time; we keep the
// per-triplet form because it is exact, stateless beyond the encoder
// register, and O(1) per triplet.

// Choice selects which coded bit of a triplet may flip.
type Choice uint8

// Per-triplet protection choices.
const (
	// ProtectB1A2 reproduces B1 and A2 exactly; A1 (coded offset 0) may
	// flip.
	ProtectB1A2 Choice = iota
	// ProtectA1A2 reproduces A1 and A2 exactly; B1 (coded offset 1) may
	// flip.
	ProtectA1A2
)

// fA and fB are the generator parities over the state only (excluding the
// current input): with register bit k = input k steps ago and state bit
// k = input k+1 steps ago, the masks are the generator taps shifted down
// by one.
func fA(s uint8) byte { return parity6(s & (genA >> 1)) }
func fB(s uint8) byte { return parity6(s & (genB >> 1)) }

func parity6(v uint8) byte {
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return byte(v & 1)
}

// RealTimeResult reports an inversion: the recovered information bits, the
// number of coded bits where re-encoding differs from the target, and the
// final encoder state.
type RealTimeResult struct {
	Info       []byte
	Flips      int
	FinalState uint8
}

// RealTimeInvert recovers input bits whose rate-2/3 encoding matches coded
// at all protected positions. len(coded) must be a multiple of 3 and
// protect must have one entry per triplet (nil = all ProtectB1A2).
//
// pinnedPrefix forces the leading input bits (the scrambled SERVICE
// field); pinnedSuffix forces the trailing input bits (tail zeros, then
// pad bits pinned to the scrambler sequence). Both must be even so they
// align with whole triplets. Within pinned triplets the inputs are fixed,
// so any of the three coded bits may flip.
func RealTimeInvert(coded []byte, protect []Choice, pinnedPrefix, pinnedSuffix []byte) (RealTimeResult, error) {
	if len(coded)%3 != 0 {
		return RealTimeResult{}, fmt.Errorf("viterbi: real-time input of %d bits, want multiple of 3", len(coded))
	}
	nTrip := len(coded) / 3
	nInfo := 2 * nTrip
	if protect != nil && len(protect) != nTrip {
		return RealTimeResult{}, fmt.Errorf("viterbi: %d protect choices for %d triplets", len(protect), nTrip)
	}
	if len(pinnedPrefix)%2 != 0 || len(pinnedSuffix)%2 != 0 {
		return RealTimeResult{}, fmt.Errorf("viterbi: pinned prefix (%d) and suffix (%d) must be even",
			len(pinnedPrefix), len(pinnedSuffix))
	}
	if len(pinnedPrefix)+len(pinnedSuffix) > nInfo {
		return RealTimeResult{}, fmt.Errorf("viterbi: pinned %d+%d bits exceed %d inputs",
			len(pinnedPrefix), len(pinnedSuffix), nInfo)
	}

	res := RealTimeResult{Info: make([]byte, 0, nInfo)}
	var s uint8
	record := func(u, target byte) uint8 {
		a, _ := outputs(s, u)
		if a != target&1 {
			res.Flips++
		}
		res.Info = append(res.Info, u)
		return nextState(s, u)
	}
	recordB := func(u, target byte) uint8 {
		_, b := outputs(s, u)
		if b != target&1 {
			res.Flips++
		}
		res.Info = append(res.Info, u)
		return nextState(s, u)
	}

	for t := 0; t < nTrip; t++ {
		base := 3 * t
		a1, b1, a2 := coded[base]&1, coded[base+1]&1, coded[base+2]&1
		infoIdx := 2 * t
		switch {
		case infoIdx < len(pinnedPrefix):
			// Both inputs forced: emit whatever the encoder produces and
			// record any mismatches.
			u1 := pinnedPrefix[infoIdx] & 1
			oa, ob := outputs(s, u1)
			if oa != a1 {
				res.Flips++
			}
			if ob != b1 {
				res.Flips++
			}
			res.Info = append(res.Info, u1)
			s = nextState(s, u1)
			u2 := pinnedPrefix[infoIdx+1] & 1
			s = record(u2, a2)
		case infoIdx >= nInfo-len(pinnedSuffix):
			u1 := pinnedSuffix[infoIdx-(nInfo-len(pinnedSuffix))] & 1
			u2 := pinnedSuffix[infoIdx+1-(nInfo-len(pinnedSuffix))] & 1
			oa, ob := outputs(s, u1)
			if oa != a1 {
				res.Flips++
			}
			if ob != b1 {
				res.Flips++
			}
			res.Info = append(res.Info, u1)
			s = nextState(s, u1)
			s = record(u2, a2)
		default:
			choice := ProtectB1A2
			if protect != nil {
				choice = protect[t]
			}
			var u1 byte
			if choice == ProtectB1A2 {
				u1 = b1 ^ fB(s)
				s = record(u1, a1) // B1 exact by construction; A1 may flip
			} else {
				u1 = a1 ^ fA(s)
				s = recordB(u1, b1) // A1 exact; B1 may flip
			}
			u2 := a2 ^ fA(s)
			s = record(u2, a2) // always exact
		}
	}
	res.FinalState = s
	return res, nil
}
