package core

import "bluefi/internal/wifi"

// Viterbi weight assignment (§2.7, Table 1): coded bits that the
// interleaver maps onto subcarriers inside the Bluetooth signal's main
// spectrum get the highest weight (they "will only flip if there is no
// alternative"), bits on the adjacent guard region get a medium weight,
// and everything else weight 1. The absolute values follow the paper.
const (
	WeightImportant = 1000
	WeightAdjacent  = 100
	WeightDontCare  = 1
	// importantHalfMHz bounds the "main Bluetooth spectrum" band: the
	// paper marks 8 subcarriers (2.5 MHz) as important, ±1.25 MHz around
	// the carrier, with 4 more subcarriers (1.25 MHz) adjacent per side.
	importantHalfMHz = 1.25
	adjacentHalfMHz  = 2.5
)

// SubcarrierWeight returns the Viterbi weight for a data subcarrier given
// the Bluetooth carrier's offset from the WiFi channel center.
func SubcarrierWeight(subcarrier int, offsetHz float64) float64 {
	distMHz := abs(float64(subcarrier)*wifi.SubcarrierSpacing/1e6 - offsetHz/1e6)
	switch {
	case distMHz <= importantHalfMHz:
		return WeightImportant
	case distMHz <= adjacentHalfMHz:
		return WeightAdjacent
	default:
		return WeightDontCare
	}
}

// CodedBitWeights returns one OFDM symbol's weights, one per
// punctured-domain coded bit, using the interleaver's bit→subcarrier
// mapping. The pattern depends only on the subcarrier, never on the
// payload, so it repeats every symbol: the Viterbi inverters take it as
// a periodic weight, and coded bit i of a frame has weight
// w[i % len(w)].
//
// Beyond the paper's three-level subcarrier weighting, each weight is
// scaled by the coded bit's constellation significance: flipping a
// Gray-mapped axis MSB moves the constellation point up to 14 grid units
// while an LSB flip moves it 2, and every flipped don't-care bit becomes
// broadband splatter at symbol boundaries. Steering unavoidable flips
// toward LSBs cuts that self-interference with no downside.
func CodedBitWeights(il *wifi.Interleaver, mod wifi.Modulation, offsetHz float64) []float64 {
	ncbps := il.NCBPS()
	nbpsc := mod.BitsPerSymbol()
	w := make([]float64, ncbps)
	for k := range w {
		sub, bitPos := il.SubcarrierOfCodedBit(k, nbpsc, wifi.HTDataSubcarriers)
		w[k] = SubcarrierWeight(sub, offsetHz) * bitSignificance(bitPos, nbpsc)
	}
	return w
}

// bitSignificance weights a constellation bit by the grid distance its
// flip causes: within each axis's Gray code, the first (most significant)
// bit moves the point furthest.
func bitSignificance(bitPos, nbpsc int) float64 {
	axisBits := nbpsc / 2
	if axisBits == 0 {
		return 1 // BPSK
	}
	posInAxis := bitPos % axisBits
	// MSB → 2^(axisBits−1), …, LSB → 1.
	return float64(int(1) << uint(axisBits-1-posInAxis))
}

// MotherWeights expands punctured-domain weights into mother-code
// positions, assigning zero (erasure) to the stolen bits of Depuncture's
// erasure mask.
func MotherWeights(punctured []float64, erased []bool) []float64 {
	out := make([]float64, len(erased))
	pos := 0
	for i, e := range erased {
		if !e {
			out[i] = punctured[pos]
			pos++
		}
	}
	return out
}
