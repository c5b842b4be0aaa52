package viterbi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func TestEncodeKnownImpulse(t *testing.T) {
	// A single 1 followed by zeros exposes the generator taps: the A
	// stream must equal g0 = 1+D²+D³+D⁵+D⁶ and B must equal
	// g1 = 1+D+D²+D³+D⁶.
	in := []byte{1, 0, 0, 0, 0, 0, 0}
	coded, final := Encode(in, 0)
	var a, b []byte
	for i := 0; i < len(coded); i += 2 {
		a = append(a, coded[i])
		b = append(b, coded[i+1])
	}
	wantA := []byte{1, 0, 1, 1, 0, 1, 1}
	wantB := []byte{1, 1, 1, 1, 0, 0, 1}
	for i := range wantA {
		if a[i] != wantA[i] {
			t.Fatalf("A stream %v, want %v", a, wantA)
		}
		if b[i] != wantB[i] {
			t.Fatalf("B stream %v, want %v", b, wantB)
		}
	}
	if final != 0 {
		t.Fatalf("final state %d, want 0 after flushing", final)
	}
}

func TestDecodeRecoversCleanCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(200)
		info := randBits(rng, n)
		for i := 0; i < 6; i++ { // tail
			info[n-1-i] = 0
		}
		coded, _ := Encode(info, 0)
		dec, err := Decode(Input{Bits: coded, PinnedSuffix: PinnedSuffixZeros(6)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range info {
			if dec[i] != info[i] {
				t.Fatalf("trial %d: bit %d differs", trial, i)
			}
		}
	}
}

func TestDecodeCorrectsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	info := randBits(rng, 120)
	for i := 0; i < 6; i++ {
		info[119-i] = 0
	}
	coded, _ := Encode(info, 0)
	// Sparse errors well within the free distance (d_free = 10).
	for _, p := range []int{5, 60, 130, 200} {
		coded[p] ^= 1
	}
	dec, err := Decode(Input{Bits: coded, PinnedSuffix: PinnedSuffixZeros(6)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range info {
		if dec[i] != info[i] {
			t.Fatalf("bit %d not corrected", i)
		}
	}
}

func TestDecodeHonorsPinnedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	target := randBits(rng, 2*100) // arbitrary, non-codeword
	pin := randBits(rng, 16)
	dec, err := Decode(Input{Bits: target, PinnedPrefix: pin, PinnedSuffix: PinnedSuffixZeros(6)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pin {
		if dec[i] != pin[i] {
			t.Fatalf("pinned bit %d overridden", i)
		}
	}
	for i := 0; i < 6; i++ {
		if dec[len(dec)-1-i] != 0 {
			t.Fatalf("tail bit not zero")
		}
	}
}

func TestDecodeWeightsProtectImportantBits(t *testing.T) {
	// Random target sequence (not a codeword): heavily-weighted positions
	// must be reproduced exactly whenever the weight dominates.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 80
		target := randBits(rng, 2*n)
		w := make([]float64, 2*n)
		var important []int
		for i := range w {
			w[i] = 1
			// Protect every 6th position strongly; the code has enough
			// freedom to satisfy sparse exact constraints.
			if i%6 == 0 {
				w[i] = 1e6
				important = append(important, i)
			}
		}
		dec, err := Decode(Input{Bits: target, Weight: w})
		if err != nil {
			t.Fatal(err)
		}
		re, _ := Encode(dec, 0)
		for _, p := range important {
			if re[p] != target[p] {
				t.Fatalf("trial %d: important coded bit %d flipped", trial, p)
			}
		}
	}
}

func TestDecodeIsOptimalVsExhaustive(t *testing.T) {
	// For short sequences compare against brute force over all inputs.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 10
		target := randBits(rng, 2*n)
		w := make([]float64, 2*n)
		for i := range w {
			w[i] = 1 + rng.Float64()*4
		}
		dec, err := Decode(Input{Bits: target, Weight: w})
		if err != nil {
			t.Fatal(err)
		}
		got := Cost(dec, target, w)
		best := 1e18
		for v := 0; v < 1<<n; v++ {
			in := make([]byte, n)
			for i := range in {
				in[i] = byte(v>>i) & 1
			}
			if c := Cost(in, target, w); c < best {
				best = c
			}
		}
		if got > best+1e-9 {
			t.Fatalf("trial %d: viterbi cost %g, optimal %g", trial, got, best)
		}
	}
}

// referenceDecode is the per-state weighted Viterbi that Decode's
// butterfly replaced, kept as the differential-test oracle: for every
// state and both inputs it recomputes the branch outputs, skips
// infinite metrics and records a full predecessor byte per state.
func referenceDecode(in Input) ([]byte, error) {
	if len(in.Bits)%2 != 0 {
		return nil, fmt.Errorf("viterbi: %d mother bits, want even", len(in.Bits))
	}
	n := len(in.Bits) / 2
	if in.Weight != nil && len(in.Weight) != len(in.Bits) {
		return nil, fmt.Errorf("viterbi: %d weights for %d positions", len(in.Weight), len(in.Bits))
	}
	if len(in.PinnedPrefix)+len(in.PinnedSuffix) > n {
		return nil, fmt.Errorf("viterbi: pinned %d+%d bits exceed %d inputs",
			len(in.PinnedPrefix), len(in.PinnedSuffix), n)
	}
	weight := func(pos int) float64 {
		if in.Weight == nil {
			return 1
		}
		return in.Weight[pos]
	}

	metric := make([]float64, numStates)
	next := make([]float64, numStates)
	for s := range metric {
		metric[s] = math.Inf(1)
	}
	metric[0] = 0
	// survivors[t][s] = predecessor state of the best path entering state
	// s after input t. The input bit itself is bit 0 of s (state = six
	// most recent inputs, newest in bit 0).
	survivors := make([][numStates]uint8, n)

	for t := 0; t < n; t++ {
		for s := range next {
			next[s] = math.Inf(1)
		}
		var forced int8 = -1
		switch {
		case t < len(in.PinnedPrefix):
			forced = int8(in.PinnedPrefix[t] & 1)
		case t >= n-len(in.PinnedSuffix):
			forced = int8(in.PinnedSuffix[t-(n-len(in.PinnedSuffix))] & 1)
		}
		ta, tb := in.Bits[2*t]&1, in.Bits[2*t+1]&1
		wa, wb := weight(2*t), weight(2*t+1)
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if math.IsInf(m, 1) {
				continue
			}
			for u := byte(0); u <= 1; u++ {
				if forced >= 0 && u != byte(forced) {
					continue
				}
				a, b := outputs(uint8(s), u)
				cost := m
				if a != ta {
					cost += wa
				}
				if b != tb {
					cost += wb
				}
				ns := nextState(uint8(s), u)
				if cost < next[ns] {
					next[ns] = cost
					survivors[t][ns] = uint8(s)
				}
			}
		}
		metric, next = next, metric
	}

	// Select the best terminal state; pinned suffix bits already restrict
	// the reachable set (six zero tail bits force state 0).
	best := 0
	bestM := math.Inf(1)
	for s, m := range metric {
		if m < bestM {
			bestM, best = m, s
		}
	}
	if math.IsInf(metric[best], 1) {
		return nil, fmt.Errorf("viterbi: no path satisfies the pinned bits")
	}

	// Traceback: input t is bit 0 of the state entered after step t.
	info := make([]byte, n)
	s := uint8(best)
	for t := n - 1; t >= 0; t-- {
		info[t] = s & 1
		s = survivors[t][s]
	}
	in.Obs.observeDecode(n)
	return info, nil
}

// decodeWeightClasses are the weights quality mode hands Decode: the
// 1000/100/1 subcarrier classes times the 1/2/4 constellation
// significance, plus 0 for erasures.
var decodeWeightClasses = []float64{0, 1, 2, 4, 100, 200, 400, 1000, 2000, 4000}

func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 480; trial++ {
		n := 1 + rng.Intn(300)
		in := Input{Bits: randBits(rng, 2*n)}
		switch trial % 4 {
		case 0: // nil weights: all ones, tie-heavy
		case 1: // explicit all-ones weights
			in.Weight = make([]float64, 2*n)
			for i := range in.Weight {
				in.Weight[i] = 1
			}
		default:
			in.Weight = make([]float64, 2*n)
			for i := range in.Weight {
				in.Weight[i] = decodeWeightClasses[rng.Intn(len(decodeWeightClasses))]
			}
		}
		in.PinnedPrefix = randBits(rng, rng.Intn(min(n, 20)+1))
		in.PinnedSuffix = randBits(rng, rng.Intn(n-len(in.PinnedPrefix)+1))
		if trial%40 == 0 {
			// Over-pinned: both decoders must reject it.
			in.PinnedSuffix = randBits(rng, n-len(in.PinnedPrefix)+1)
		}
		assertSameDecode(t, fmt.Sprintf("trial %d (n=%d)", trial, n), in)
	}

	// Every pin set that fits is satisfiable by some input sequence, so
	// an unsatisfiable one needs hard constraints: infinite weights on a
	// codeword of info with a pinned prefix that contradicts info[0].
	info := randBits(rng, 40)
	target, _ := Encode(info, 0)
	w := make([]float64, len(target))
	for i := range w {
		w[i] = math.Inf(1)
	}
	in := Input{Bits: target, Weight: w, PinnedPrefix: []byte{info[0] ^ 1}}
	if _, err := Decode(in); err == nil {
		t.Fatal("Decode accepted pins no finite-cost path satisfies")
	}
	assertSameDecode(t, "unsatisfiable", in)
	// The same hard constraints with a consistent pin decode to info.
	in.PinnedPrefix[0] = info[0]
	assertSameDecode(t, "hard-constrained", in)
	if got, _ := Decode(in); string(got) != string(info) {
		t.Fatalf("hard-constrained decode %v, want %v", got, info)
	}
}

// assertSameDecode requires Decode and referenceDecode to agree on the
// error outcome and, on success, on every information bit.
func assertSameDecode(t *testing.T, name string, in Input) {
	t.Helper()
	got, err := Decode(in)
	want, refErr := referenceDecode(in)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", name, err, refErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d info bits, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: info bit %d = %d, reference %d", name, i, got[i], want[i])
		}
	}
}

func TestDecodeInputValidation(t *testing.T) {
	if _, err := Decode(Input{Bits: make([]byte, 3)}); err == nil {
		t.Error("accepted odd bit count")
	}
	if _, err := Decode(Input{Bits: make([]byte, 8), Weight: make([]float64, 3)}); err == nil {
		t.Error("accepted weight length mismatch")
	}
	for _, period := range []int{0, 1, 3, 8, 16} {
		// Empty, odd, or not dividing the 12 positions.
		if _, err := Decode(Input{Bits: make([]byte, 12), Weight: make([]float64, period)}); err == nil {
			t.Errorf("accepted a weight period of %d over 12 positions", period)
		}
	}
	for _, period := range []int{2, 4, 12} {
		if _, err := Decode(Input{Bits: make([]byte, 12), Weight: make([]float64, period)}); err != nil {
			t.Errorf("rejected a weight period of %d over 12 positions: %v", period, err)
		}
	}
	if _, err := Decode(Input{Bits: make([]byte, 8), PinnedPrefix: make([]byte, 3), PinnedSuffix: make([]byte, 3)}); err == nil {
		t.Error("accepted over-pinned input")
	}
}

// encodeRate23 produces the punctured rate-2/3 stream (A1,B1,A2 per two
// inputs) used by the real-time inverter.
func encodeRate23(in []byte) []byte {
	mother, _ := Encode(in, 0)
	out := make([]byte, 0, len(mother)*3/4)
	for i := 0; i*2 < len(mother); i++ {
		out = append(out, mother[2*i])
		if i%2 == 0 {
			out = append(out, mother[2*i+1])
		}
	}
	return out
}

func TestRealTimeInvertGuarantees(t *testing.T) {
	// Arbitrary (non-codeword) targets under a random weight order per
	// triplet. ImportantMin 0 never steers, so A2 never flips, at most
	// one coded bit per triplet does, and it is the lighter of A1 and B1
	// (B1 on a tie).
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		nTrip := 50 + rng.Intn(200)
		coded := randBits(rng, 3*nTrip)
		w := make([]float64, len(coded))
		for i := range w {
			w[i] = float64(1 + rng.Intn(3))
		}
		res, err := RealTimeInvertWeighted(coded, RTWeights{W: w}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Info) != 2*nTrip {
			t.Fatalf("info length %d", len(res.Info))
		}
		// Re-encode: the flip count is exactly the number of differing
		// coded bits, and the position rules hold at each of them.
		re := encodeRate23(res.Info)
		var diffs []int
		for i := range coded {
			if re[i] != coded[i] {
				diffs = append(diffs, i)
			}
		}
		if len(diffs) != res.Flips {
			t.Fatalf("flip count %d vs actual %v", res.Flips, diffs)
		}
		for k, f := range diffs {
			tr, off := f/3, f%3
			if k > 0 && diffs[k-1]/3 == tr {
				t.Fatalf("two flips in triplet %d", tr)
			}
			a1, b1 := w[3*tr], w[3*tr+1]
			switch {
			case off == 2:
				t.Fatalf("A2 flipped at triplet %d", tr)
			case off == 0 && a1 >= b1:
				t.Fatalf("A1 (weight %g) flipped over B1 (weight %g) at triplet %d", a1, b1, tr)
			case off == 1 && b1 > a1:
				t.Fatalf("B1 (weight %g) flipped over A1 (weight %g) at triplet %d", b1, a1, tr)
			}
		}
	}
}

func TestRealTimeBijectionProperty(t *testing.T) {
	// The core algebraic claim: for every state, (B1,A2) ↦ (u1,u2) is a
	// bijection, and so is (A1,A2) ↦ (u1,u2).
	for s := 0; s < 64; s++ {
		seenBA := map[[2]byte]bool{}
		seenAA := map[[2]byte]bool{}
		for u1 := byte(0); u1 <= 1; u1++ {
			for u2 := byte(0); u2 <= 1; u2++ {
				a1, b1 := outputs(uint8(s), u1)
				s1 := nextState(uint8(s), u1)
				a2, _ := outputs(s1, u2)
				seenBA[[2]byte{b1, a2}] = true
				seenAA[[2]byte{a1, a2}] = true
			}
		}
		if len(seenBA) != 4 || len(seenAA) != 4 {
			t.Fatalf("state %d: not bijective (%d, %d)", s, len(seenBA), len(seenAA))
		}
	}
}

func TestEncodeLinearity(t *testing.T) {
	// Convolutional codes are linear: Encode(a⊕b) = Encode(a)⊕Encode(b).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		a, b := randBits(rng, n), randBits(rng, n)
		x := make([]byte, n)
		for i := range x {
			x[i] = a[i] ^ b[i]
		}
		ca, _ := Encode(a, 0)
		cb, _ := Encode(b, 0)
		cx, _ := Encode(x, 0)
		for i := range cx {
			if cx[i] != ca[i]^cb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecode1000Bits(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	target := randBits(rng, 2000)
	w := make([]float64, 2000)
	for i := range w {
		w[i] = 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(Input{Bits: target, Weight: w}); err != nil {
			b.Fatal(err)
		}
	}
}

// beaconDecodeInput is a quality-mode beacon-sized problem: 29,500
// trellis steps, weights drawn from the paper's classes with every
// fourth mother position erased (rate-2/3 puncturing), a 16-bit SERVICE
// prefix and a six-bit tail plus ten pad bits pinned at the end.
func beaconDecodeInput() Input {
	const steps = 29500
	rng := rand.New(rand.NewSource(1))
	in := Input{Bits: randBits(rng, 2*steps), Weight: make([]float64, 2*steps)}
	for i := range in.Weight {
		if i%4 != 3 {
			in.Weight[i] = decodeWeightClasses[1+rng.Intn(len(decodeWeightClasses)-1)]
		}
	}
	in.PinnedPrefix = randBits(rng, 16)
	in.PinnedSuffix = append(PinnedSuffixZeros(6), randBits(rng, 10)...)
	return in
}

// BenchmarkDecodeBeacon times Decode beside the per-state reference on
// the same beacon-sized input.
func BenchmarkDecodeBeacon(b *testing.B) {
	in := beaconDecodeInput()
	for _, c := range []struct {
		name   string
		decode func(Input) ([]byte, error)
	}{{"butterfly", Decode}, {"reference", referenceDecode}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
