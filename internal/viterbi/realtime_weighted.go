package viterbi

import "fmt"

// Real-time inversion of the rate-2/3 punctured 802.11 code (paper §2.7,
// "real-time decoder").
//
// At rate 2/3 the mother code's output pairs (A1,B1),(A2,B2) for two input
// bits become the transmitted triplet (A1,B1,A2) — B2 is stolen. Both
// generators tap the current input bit (their D⁰ coefficient is 1), so
//
//	A1 = u1 ⊕ fA(s)    B1 = u1 ⊕ fB(s)    A2 = u2 ⊕ fA(s′),  s′ = δ(s,u1)
//
// which makes the maps u1 ↦ A1, u1 ↦ B1 and u2 ↦ A2 bijections given the
// state. Per triplet the inverter therefore reproduces A2 *and one of
// {A1,B1}* exactly by back-substitution; the third bit is whatever the
// encoder emits and may flip — at most one flip per three coded bits.
// This is the same guarantee as the paper's lookup-table construction,
// derived directly from the code algebra (the paper's "well-designed WiFi
// codebook" observation is exactly the D⁰ tap). The paper's 39-bit-group
// table formulation is an instance of the same identity batched three
// 13-bit interleaver columns at a time; the per-triplet form is exact,
// stateless beyond the encoder register, and O(1) per triplet.
//
// Conflict steering: back-substitution fails to protect both A1 and B1
// when both map to important subcarriers: they share the input
// bit u1, so (A1,B1) can only be matched jointly when the target parity
// a1⊕b1 equals fA(s)⊕fB(s) — a property of the encoder state s. That
// parity is s₀⊕s₄ = u2(t−1)⊕u2(t−3): it is controlled by the second input
// bits of earlier triplets. Where those triplets are unimportant, their
// A2 can be sacrificed (a don't-care flip) to steer the state so the
// conflict triplet matches both bits exactly. With one triplet of
// lookahead this stays O(1) per triplet and removes nearly all important
// flips — the practical equivalent of the paper's precomputed-table
// construction, which likewise confines flips to don't-care regions.

// RTWeights configures the weighted inverter: one weight per coded bit
// and the threshold at or above which a position counts as important.
// W may be one period of a pattern that repeats over the coded bits: its
// length must be a multiple of 3 dividing len(coded), and coded bit i
// takes W[i % len(W)]. nil means every weight is 1.
type RTWeights struct {
	W            []float64
	ImportantMin float64
	// Obs, when non-nil, receives inversion telemetry (counts only —
	// never an input to the inversion itself).
	Obs *Metrics
}

// RealTimeResult reports an inversion: the recovered information bits, the
// number of coded bits where re-encoding differs from the target, and the
// final encoder state.
type RealTimeResult struct {
	Info       []byte
	Flips      int
	FinalState uint8
}

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

// RealTimeInvertWeighted recovers input bits whose rate-2/3 encoding
// matches coded at important positions wherever the code algebra allows,
// steering encoder state ahead of conflict triplets. Outside steering,
// A2 is always reproduced and a flip falls on the lighter of A1 and B1
// (B1 on a tie). len(coded) must be a multiple of 3.
//
// pinnedPrefix forces the leading input bits (the scrambled SERVICE
// field); pinnedSuffix forces the trailing input bits (tail zeros, then
// pad bits pinned to the scrambler sequence). Both must be even so they
// align with whole triplets. Within pinned triplets the inputs are fixed,
// so any of the three coded bits may flip.
func RealTimeInvertWeighted(coded []byte, w RTWeights, pinnedPrefix, pinnedSuffix []byte) (RealTimeResult, error) {
	if len(coded)%3 != 0 {
		return RealTimeResult{}, fmt.Errorf("viterbi: real-time input of %d bits, want multiple of 3", len(coded))
	}
	nTrip := len(coded) / 3
	nInfo := 2 * nTrip
	if err := checkPeriod(w.W, len(coded), 3); err != nil {
		return RealTimeResult{}, err
	}
	if len(pinnedPrefix)%2 != 0 || len(pinnedSuffix)%2 != 0 {
		return RealTimeResult{}, fmt.Errorf("viterbi: pinned prefix (%d) and suffix (%d) must be even",
			len(pinnedPrefix), len(pinnedSuffix))
	}
	if len(pinnedPrefix)+len(pinnedSuffix) > nInfo {
		return RealTimeResult{}, fmt.Errorf("viterbi: pinned %d+%d bits exceed %d inputs",
			len(pinnedPrefix), len(pinnedSuffix), nInfo)
	}
	// Weights are read by index into the period: wi is triplet t's first
	// coded bit there and wn triplet t+1's, walked rather than reduced
	// modulo the period per bit.
	period := len(w.W)
	if w.W == nil {
		period = len(coded)
	}
	weight := func(i int) float64 {
		if w.W == nil {
			return 1
		}
		return w.W[i]
	}
	important := func(i int) bool {
		return w.ImportantMin > 0 && weight(i) >= w.ImportantMin
	}
	pinnedTriplet := func(t int) bool {
		infoIdx := 2 * t
		return infoIdx < len(pinnedPrefix) || infoIdx >= nInfo-len(pinnedSuffix)
	}
	conflict := func(t, wt int) bool {
		return t < nTrip && !pinnedTriplet(t) && important(wt) && important(wt+1)
	}

	res := RealTimeResult{Info: make([]byte, 0, nInfo)}
	var s uint8
	steered := 0
	wi := 0
	for t := 0; t < nTrip; t++ {
		base := 3 * t
		wn := wi + 3
		if wn == period {
			wn = 0
		}
		a1, b1, a2 := coded[base]&1, coded[base+1]&1, coded[base+2]&1
		infoIdx := 2 * t

		var u1, u2 byte
		switch {
		case infoIdx < len(pinnedPrefix):
			u1 = pinnedPrefix[infoIdx] & 1
			u2 = pinnedPrefix[infoIdx+1] & 1
		case infoIdx >= nInfo-len(pinnedSuffix):
			u1 = pinnedSuffix[infoIdx-(nInfo-len(pinnedSuffix))] & 1
			u2 = pinnedSuffix[infoIdx+1-(nInfo-len(pinnedSuffix))] & 1
		default:
			// Choose u1: match both when the state allows, else protect
			// the heavier of A1/B1.
			if fA(s)^fB(s) == a1^b1 || weight(wi) >= weight(wi+1) {
				u1 = a1 ^ fA(s)
			} else {
				u1 = b1 ^ fB(s)
			}
			// Choose u2: steer the next conflict triplet when A2 here is
			// expendable; otherwise match A2.
			s1 := nextState(s, u1)
			u2 = a2 ^ fA(s1)
			if conflict(t+1, wn) && !important(wi+2) {
				// Need u2(t) ⊕ u2(t−2) = a1(t+1) ⊕ b1(t+1) ⊕ fA⊕fB-free
				// part: after triplet t, state bits s₀=u2(t), s₄=u2(t−2);
				// the conflict check uses parity(s & 0x11) = u2(t)⊕u2(t−2).
				var u2Prev2 byte
				if idx := 2*(t-2) + 1; idx >= 0 {
					u2Prev2 = res.Info[idx]
				}
				want := (coded[3*(t+1)] ^ coded[3*(t+1)+1]) & 1
				u2 = want ^ u2Prev2
				steered++
			}
		}

		oa, ob := outputs(s, u1)
		s = nextState(s, u1)
		oa2, _ := outputs(s, u2)
		s = nextState(s, u2)
		res.Flips += int(oa^a1) + int(ob^b1) + int(oa2^a2)
		res.Info = append(res.Info, u1, u2)
		wi = wn
	}
	res.FinalState = s
	w.Obs.observeRealTime(res.Flips, steered)
	return res, nil
}
