package viterbi

import (
	"math/rand"
	"testing"
)

func TestWeightedInvertRoundTripsCodewords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 * (10 + rng.Intn(150))
		info := randBits(rng, n)
		coded := encodeRate23(info)
		res, err := RealTimeInvertWeighted(coded, RTWeights{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Flips != 0 {
			t.Fatalf("trial %d: %d flips on a codeword", trial, res.Flips)
		}
		for i := range info {
			if res.Info[i] != info[i] {
				t.Fatalf("trial %d: info bit %d differs", trial, i)
			}
		}
	}
}

// importantPattern marks coded positions important with the structure the
// HT interleaver produces: the 13-column first permutation maps a coded
// bit's subcarrier group from its index mod 13, so an in-band region is a
// couple of adjacent residues — including pairs that cover both A1 and B1
// of some triplets (the conflict case the steering resolves).
func importantPattern(n int, rng *rand.Rand) []float64 {
	w := make([]float64, n)
	c0 := rng.Intn(12) // two adjacent interleaver columns are in-band
	for i := range w {
		w[i] = 1
		if r := i % 13; r == c0 || r == c0+1 {
			w[i] = 1000
		}
	}
	return w
}

func TestWeightedInvertSteersConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	totalImportant, flippedImportant, flips := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		nTrip := 120
		coded := randBits(rng, 3*nTrip)
		w := importantPattern(len(coded), rng)
		res, err := RealTimeInvertWeighted(coded, RTWeights{W: w, ImportantMin: 1000}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		re := encodeRate23(res.Info)
		for i := range coded {
			if w[i] >= 1000 {
				totalImportant++
			}
			if re[i] != coded[i] {
				flips++
				if w[i] >= 1000 {
					flippedImportant++
				}
			}
		}
		// The flip count must be exact.
		var diffs int
		for i := range coded {
			if re[i] != coded[i] {
				diffs++
			}
		}
		if diffs != res.Flips {
			t.Fatalf("trial %d: flip count %d vs actual %d", trial, res.Flips, diffs)
		}
	}
	if totalImportant == 0 || flips == 0 {
		t.Fatal("degenerate experiment")
	}
	// State steering must keep important flips rare: without it, ~50 % of
	// both-important triplets flip; with it, only the cases where the
	// steering donor is unavailable remain.
	frac := float64(flippedImportant) / float64(totalImportant)
	t.Logf("important flips: %d/%d (%.3f%%), total flips %d", flippedImportant, totalImportant, 100*frac, flips)
	if frac > 0.01 {
		t.Fatalf("important-bit flip fraction %.3f%% too high", 100*frac)
	}
}

func TestWeightedInvertPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	coded := randBits(rng, 3*60)
	pin := randBits(rng, 16)
	suffix := append(make([]byte, 6), randBits(rng, 2)...)
	res, err := RealTimeInvertWeighted(coded, RTWeights{}, pin, suffix)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pin {
		if res.Info[i] != pin[i] {
			t.Fatalf("pinned prefix bit %d overridden", i)
		}
	}
	for i := range suffix {
		if res.Info[len(res.Info)-len(suffix)+i] != suffix[i] {
			t.Fatalf("pinned suffix bit %d overridden", i)
		}
	}
}

func TestWeightedInvertValidation(t *testing.T) {
	if _, err := RealTimeInvertWeighted(make([]byte, 4), RTWeights{}, nil, nil); err == nil {
		t.Error("accepted non-multiple-of-3")
	}
	if _, err := RealTimeInvertWeighted(make([]byte, 6), RTWeights{W: make([]float64, 5)}, nil, nil); err == nil {
		t.Error("accepted weight length mismatch")
	}
	for _, period := range []int{0, 4, 9, 24} {
		// Empty, not whole triplets, or not dividing the 12 coded bits.
		if _, err := RealTimeInvertWeighted(make([]byte, 12), RTWeights{W: make([]float64, period)}, nil, nil); err == nil {
			t.Errorf("accepted a weight period of %d over 12 coded bits", period)
		}
	}
	for _, period := range []int{3, 6, 12} {
		if _, err := RealTimeInvertWeighted(make([]byte, 12), RTWeights{W: make([]float64, period)}, nil, nil); err != nil {
			t.Errorf("rejected a weight period of %d over 12 coded bits: %v", period, err)
		}
	}
	if _, err := RealTimeInvertWeighted(make([]byte, 6), RTWeights{}, make([]byte, 3), nil); err == nil {
		t.Error("accepted odd prefix")
	}
	if _, err := RealTimeInvertWeighted(make([]byte, 6), RTWeights{}, make([]byte, 4), make([]byte, 2)); err == nil {
		t.Error("accepted over-pinning")
	}
}

// tile repeats one weight period to n entries.
func tile(period []float64, n int) []float64 {
	out := make([]float64, 0, n)
	for len(out) < n {
		out = append(out, period...)
	}
	return out
}

// randPeriod draws one period of n weights from the classes synthesis
// hands the inverters.
func randPeriod(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = decodeWeightClasses[rng.Intn(len(decodeWeightClasses))]
	}
	return w
}

// TestPeriodicWeightsMatchTiled pins the periodic-weight contract: one
// period gives bit-identical results to the same period tiled over the
// whole input, for both inverters.
func TestPeriodicWeightsMatchTiled(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		reps := 1 + rng.Intn(8)
		// Decode: an even period over the mother positions.
		period := randPeriod(rng, 2*(1+rng.Intn(40)))
		n := len(period) * reps
		in := Input{Bits: randBits(rng, n), Weight: period}
		in.PinnedPrefix = randBits(rng, rng.Intn(min(n/2, 16)+1))
		in.PinnedSuffix = randBits(rng, rng.Intn(n/2-len(in.PinnedPrefix)+1))
		got, err := Decode(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		in.Weight = tile(period, n)
		want, err := Decode(in)
		if err != nil {
			t.Fatalf("trial %d: tiled: %v", trial, err)
		}
		if string(got) != string(want) {
			t.Fatalf("trial %d: periodic decode differs from tiled (period %d, %d positions)", trial, len(period), n)
		}

		// RealTimeInvertWeighted: a period of whole triplets, pinned
		// in whole triplets.
		period = randPeriod(rng, 3*(1+rng.Intn(40)))
		n = len(period) * reps
		coded := randBits(rng, n)
		prefix := randBits(rng, 2*rng.Intn(min(n/3, 8)+1))
		suffix := randBits(rng, 2*rng.Intn(n/3-len(prefix)/2+1))
		rw := RTWeights{W: period, ImportantMin: 1000}
		rp, err := RealTimeInvertWeighted(coded, rw, prefix, suffix)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rw.W = tile(period, n)
		rt, err := RealTimeInvertWeighted(coded, rw, prefix, suffix)
		if err != nil {
			t.Fatalf("trial %d: tiled: %v", trial, err)
		}
		if string(rp.Info) != string(rt.Info) || rp.Flips != rt.Flips || rp.FinalState != rt.FinalState {
			t.Fatalf("trial %d: periodic inversion (flips %d, state %d) differs from tiled (flips %d, state %d)",
				trial, rp.Flips, rp.FinalState, rt.Flips, rt.FinalState)
		}
	}
}

func BenchmarkWeightedInvert1000Bits(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	coded := randBits(rng, 1500)
	w := importantPattern(len(coded), rng)
	rw := RTWeights{W: w, ImportantMin: 1000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RealTimeInvertWeighted(coded, rw, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
