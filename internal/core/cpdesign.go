package core

import "fmt"

// CP-insertion and windowing compensation (paper §2.4, Fig. 3): given the
// target phase signal θ[n], construct θ̂[n] such that
//
//   - within every T-sample OFDM symbol the first G samples (the CP)
//     exactly equal the last G samples, so the hardware's CP copy is a
//     no-op, and
//   - the one-sample cyclic extension the windowing adds equals the first
//     sample of the next symbol, so the overlap-average is a no-op.
//
// For the short guard interval (G = 8, T = 72) this is the paper's
// piecewise definition: per symbol starting at N = 0, 72, 144, …
//
//	θ̂[N+n] = θ[N+n]        0 ≤ n ≤ 4      (true waveform)
//	θ̂[N+n] = θ[N+n+64]     5 ≤ n ≤ 8      (future tail copied into CP)
//	θ̂[N+n] = θ[N+n]        9 ≤ n ≤ 63     (true waveform)
//	θ̂[N+n] = θ[N+n−64]    64 ≤ n ≤ 68     (CP replayed at the tail)
//	θ̂[N+n] = θ[N+n]       69 ≤ n ≤ 71     (true waveform, continuous)
//
// The corruption relative to θ is confined to samples 5–8 and 64–68 of
// each symbol — under 250 ns at each symbol edge, which appears to a
// Bluetooth receiver as ≈4 MHz noise outside its channel filter.
//
// The split point (how many CP samples keep the true waveform before the
// copied region begins) generalizes to other guard lengths: for G = 16
// (long GI / 802.11g, §5.1) the same construction applies with twice the
// per-edge corruption, which is why the paper found 802.11g "spotty".

// DesignCP returns θ̂ for a phase signal whose length is a multiple of the
// symbol length guard+64.
func DesignCP(theta []float64, guard int) ([]float64, error) {
	T := guard + 64
	if len(theta)%T != 0 {
		return nil, fmt.Errorf("core: phase signal of %d samples is not a multiple of the %d-sample symbol", len(theta), T)
	}
	if guard < 2 || guard > 32 {
		return nil, fmt.Errorf("core: guard of %d samples out of range", guard)
	}
	// keep: CP samples [0,keep) stay true; [keep,guard] take the future
	// tail. The paper uses keep=5 for G=8 — ceil(G/2)+1.
	keep := guard/2 + 1
	at := func(i int) float64 { // clamp: the final extension sample has no successor
		if i >= len(theta) {
			i = len(theta) - 1
		}
		return theta[i]
	}
	out := make([]float64, len(theta))
	nsym := len(theta) / T
	for k := 0; k < nsym; k++ {
		N := k * T
		for n := 0; n < T; n++ {
			switch {
			case n < keep: // true waveform
				out[N+n] = theta[N+n]
			case n <= guard: // future tail (incl. body[0] = next symbol's start)
				out[N+n] = at(N + n + 64)
			case n < 64: // body: true waveform
				out[N+n] = theta[N+n]
			case n < 64+keep: // tail start replays the CP head
				out[N+n] = theta[N+n-64]
			default: // tail end: true waveform (already equals the CP copy)
				out[N+n] = theta[N+n]
			}
		}
	}
	return out, nil
}

// VerifyCPStructure checks that a phase signal satisfies the CP-equals-
// tail constraint within tolerance, returning the worst absolute
// difference.
func VerifyCPStructure(theta []float64, guard int) (worst float64, err error) {
	T := guard + 64
	if len(theta)%T != 0 {
		return 0, fmt.Errorf("core: phase signal of %d samples is not a multiple of %d", len(theta), T)
	}
	for N := 0; N < len(theta); N += T {
		for n := 0; n < guard; n++ {
			d := wrapDiff(theta[N+n], theta[N+n+64])
			if d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

func wrapDiff(a, b float64) float64 {
	d := a - b
	for d > 3.141592653589793 {
		d -= 2 * 3.141592653589793
	}
	for d < -3.141592653589793 {
		d += 2 * 3.141592653589793
	}
	if d < 0 {
		d = -d
	}
	return d
}
