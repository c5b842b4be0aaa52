// Package viterbi inverts the 802.11 convolutional encoder for BlueFi's
// I4 compensation (paper §2.7). It provides two decoders:
//
//   - Decode: a weighted hard-decision Viterbi over the rate-1/2 mother
//     code with per-position weights, erasures at punctured positions, and
//     pinned head/tail input bits. Weights let BlueFi make bits that map
//     to Bluetooth-occupied subcarriers effectively unflippable (Table 1).
//
//   - RealTimeInvertWeighted: the O(T) exact-match inverse coder for rate
//     2/3. In each output triplet (A1,B1,A2) both generator polynomials
//     tap the current input bit, so fixing A2 plus one of {A1,B1}
//     determines the two input bits by back-substitution — two of three
//     coded bits are reproduced exactly and the possible flip lands on
//     the lighter remaining one, with encoder-state steering where both
//     A1 and B1 are important. This realizes the paper's "at most 1/3 of
//     bits flip, important bits never" guarantee with O(1) work per
//     triplet.
//
// The encoder definition is self-contained (the same K=7 (133,171)₈ code
// as package wifi) so the two packages stay independent; a cross-check
// test asserts they agree.
//
//bluefi:strict
package viterbi

import (
	"fmt"
	"math"
	"math/bits"
)

const (
	numStates = 64
	genA      = 0x6D // taps {0,2,3,5,6}, bit k = input k steps ago
	genB      = 0x4F // taps {0,1,2,3,6}
)

// outputs returns the (A,B) pair for input u at state s.
func outputs(s uint8, u byte) (byte, byte) {
	full := uint(s)<<1 | uint(u&1)
	return byte(bits.OnesCount(full&genA) & 1), byte(bits.OnesCount(full&genB) & 1)
}

func nextState(s uint8, u byte) uint8 {
	return uint8((uint(s)<<1 | uint(u&1)) & 0x3F)
}

// Encode runs the rate-1/2 mother code from state init, emitting A then B
// per input bit, and returns the coded bits and final state.
func Encode(in []byte, init uint8) ([]byte, uint8) {
	out := make([]byte, 0, 2*len(in))
	s := init & 0x3F
	for _, u := range in {
		a, b := outputs(s, u)
		out = append(out, a, b)
		s = nextState(s, u)
	}
	return out, s
}

// Input describes one weighted decoding problem over mother-code
// positions (two per information bit, A first).
type Input struct {
	// Bits holds the target mother-code bits; its length must be even.
	Bits []byte
	// Weight holds one non-negative weight per mother position. A zero
	// weight marks an erasure (punctured or don't-care position). nil
	// means all weights are 1. A shorter slice is one period of a
	// pattern that repeats over Bits: its length must be even and divide
	// len(Bits), and position i takes Weight[i % len(Weight)].
	Weight []float64
	// PinnedPrefix forces the first input bits to known values (BlueFi
	// pins the scrambled SERVICE field).
	PinnedPrefix []byte
	// PinnedSuffix forces the last input bits to known values: the
	// convolutional tail (six zeros) optionally followed by pad bits
	// pinned to the scrambler sequence.
	PinnedSuffix []byte
	// Obs, when non-nil, receives decode telemetry (counts only — never
	// an input to the decode itself).
	Obs *Metrics
}

// checkPeriod validates a non-nil weight period w over n positions
// consumed step positions at a time: it must be a non-empty whole number
// of steps that divides n.
func checkPeriod(w []float64, n, step int) error {
	if w != nil && (len(w) == 0 || len(w)%step != 0 || n%len(w) != 0) {
		return fmt.Errorf("viterbi: %d weights for %d positions, want a non-empty multiple of %d dividing them", len(w), n, step)
	}
	return nil
}

// PinnedSuffixZeros returns a suffix of n zero bits, the common tail case.
func PinnedSuffixZeros(n int) []byte { return make([]byte, n) }

// Decode finds input bits minimizing the weighted Hamming distance between
// the re-encoded output and in.Bits. It returns the information bits
// (length len(Bits)/2).
//
// The trellis runs as 32 add-compare-select butterflies per step (see
// acsStep). Ties resolve exactly as a per-state scan in ascending
// predecessor order would: on equal cost the lower predecessor wins, and
// the terminal state is the lowest index with the minimum metric.
func Decode(in Input) ([]byte, error) {
	if len(in.Bits)%2 != 0 {
		return nil, fmt.Errorf("viterbi: %d mother bits, want even", len(in.Bits))
	}
	n := len(in.Bits) / 2
	if err := checkPeriod(in.Weight, len(in.Bits), 2); err != nil {
		return nil, err
	}
	if len(in.PinnedPrefix)+len(in.PinnedSuffix) > n {
		return nil, fmt.Errorf("viterbi: pinned %d+%d bits exceed %d inputs",
			len(in.PinnedPrefix), len(in.PinnedSuffix), n)
	}

	var bufA, bufB [numStates]float64
	metric, next := &bufA, &bufB
	for s := range metric {
		metric[s] = unreachable
	}
	metric[0] = 0
	// survivors[t] bit ns is set when the best path entering state ns
	// after input t came from the odd predecessor ns>>1|32 rather than
	// ns>>1. The input bit itself is bit 0 of ns (state = six most recent
	// inputs, newest in bit 0).
	survivors := make([]uint64, n)
	suffixStart := n - len(in.PinnedSuffix)
	wa, wb := 1.0, 1.0
	wi := 0 // index of step t's A weight in the period, walked not reduced
	for t := 0; t < n; t++ {
		if in.Weight != nil {
			wa, wb = in.Weight[wi], in.Weight[wi+1]
			if wi += 2; wi == len(in.Weight) {
				wi = 0
			}
		}
		survivors[t] = acsStep(next, metric, in.Bits[2*t]&1, in.Bits[2*t+1]&1, wa, wb)
		switch {
		case t < len(in.PinnedPrefix):
			pin(next, in.PinnedPrefix[t])
		case t >= suffixStart:
			pin(next, in.PinnedSuffix[t-suffixStart])
		}
		metric, next = next, metric
	}

	// Select the best terminal state; pinned suffix bits already restrict
	// the reachable set (six zero tail bits force state 0).
	best := 0
	for s, m := range metric {
		if m < metric[best] {
			best = s
		}
	}
	if metric[best] >= unreachable {
		return nil, fmt.Errorf("viterbi: no finite-cost path satisfies the pinned bits")
	}

	// Traceback: input t is bit 0 of the state entered after step t; the
	// survivor bit restores the input that left the state six steps back.
	info := make([]byte, n)
	s := uint(best)
	for t := n - 1; t >= 0; t-- {
		info[t] = byte(s & 1)
		s = s>>1 | uint(survivors[t]>>s&1)<<5
	}
	in.Obs.observeDecode(n)
	return info, nil
}

// unreachable is the path metric of a state no admissible path enters.
// It stays finite so the butterflies need no infinity checks; every
// admissible metric is a sum of weights far below it, and adding a
// weight to it rounds back to (at least) itself.
const unreachable = 1e300

// butterflyOut[j] is the (A<<1 | B) output pair on the transition from
// state j into state 2j. Both generators tap the newest and the oldest
// bit, so flipping either one complements the pair: the three other
// transitions of butterfly j (j→2j+1, j|32→2j, j|32→2j+1) emit
// butterflyOut[j]^3, butterflyOut[j]^3 and butterflyOut[j].
var butterflyOut = func() (t [numStates / 2]uint8) {
	for j := range t {
		a, b := outputs(uint8(j), 0)
		t[j] = a<<1 | b
	}
	return t
}()

// acsStep advances the path metrics one trellis step for the target pair
// (ta, tb) with weights (wa, wb), writing next and returning the packed
// survivor word (bit ns set when state ns was entered from its odd
// predecessor ns>>1|32). Butterfly j reads predecessors j and j|32 and
// writes states 2j and 2j+1; on equal cost the even predecessor wins.
func acsStep(next, metric *[numStates]float64, ta, tb byte, wa, wb float64) uint64 {
	// cost[o] is the branch cost of emitting the pair o = A<<1 | B.
	want := ta<<1 | tb
	var cost [4]float64
	for o := range cost {
		d := uint8(o) ^ want
		if d&2 != 0 {
			cost[o] += wa
		}
		if d&1 != 0 {
			cost[o] += wb
		}
	}
	var surv uint64
	for j := 0; j < numStates/2; j++ {
		o := butterflyOut[j]
		same, comp := cost[o&3], cost[(o^3)&3]
		m0, m1 := metric[j], metric[j|numStates/2]
		var d0, d1 uint64
		next[2*j], d0 = acs(m0+same, m1+comp)
		next[2*j+1], d1 = acs(m0+comp, m1+same)
		surv |= (d0 | d1<<1) << uint(2*j)
	}
	return surv
}

// acs returns the smaller of c0 and c1 and 1 when c1 wins, 0 otherwise
// (so c0 wins ties). Metrics are non-negative, so their IEEE bit
// patterns order like the values; comparing those lets the compiler
// select with conditional moves instead of a data-dependent branch.
func acs(c0, c1 float64) (float64, uint64) {
	b0, b1 := math.Float64bits(c0), math.Float64bits(c1)
	sel, d := b0, uint64(0)
	if b1 < b0 {
		sel, d = b1, 1
	}
	return math.Float64frombits(sel), d
}

// pin marks unreachable every state whose newest input bit (bit 0)
// disagrees with the forced bit u.
func pin(metric *[numStates]float64, u byte) {
	for s := int(^u & 1); s < numStates; s += 2 {
		metric[s] = unreachable
	}
}

// Cost re-encodes info and returns the weighted Hamming distance to the
// target, using the same conventions as Decode.
func Cost(info, target []byte, weight []float64) float64 {
	coded, _ := Encode(info, 0)
	var c float64
	for i := range coded {
		if i >= len(target) {
			break
		}
		if coded[i] != target[i]&1 {
			if weight == nil {
				c++
			} else {
				c += weight[i]
			}
		}
	}
	return c
}
