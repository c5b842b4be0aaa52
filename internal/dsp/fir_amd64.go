package dsp

// hasAVX reports whether the CPU runs AVX instructions and the OS saves
// the YMM registers across context switches: CPUID leaf 1 sets AVX
// (ECX bit 28) and OSXSAVE (ECX bit 27), and XCR0 enables the SSE and
// AVX state (bits 1 and 2). It is a property of the platform, read once.
var hasAVX = detectAVX()

func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuidECX1(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false // XGETBV faults without OSXSAVE
	}
	return xgetbvXCR0()&6 == 6
}

// cpuidECX1 returns ECX of CPUID leaf 1.
func cpuidECX1() uint32

// xgetbvXCR0 returns the low word of XCR0. The CPU must set OSXSAVE.
func xgetbvXCR0() uint32

// firVector writes the interior outputs [lo, lo+16b) of ApplyInto on the
// AVX kernel, for the largest b with lo+16b ≤ hi, and returns lo+16b.
// Every output in [lo, hi) must have its whole window in x; the CPU must
// have AVX (hasAVX).
func firVector(out, x []complex128, taps []float64, d, lo, hi int) int {
	nt := len(taps)
	n := lo
	for n+firVecBlock <= hi {
		m := min((hi-n)/firVecBlock*firVecBlock, firVecChunk)
		firAVX16(out[n:n+m], x[n+d+1-nt:n+d+m], taps)
		n += m
	}
	return n
}

// firAVX16 sets out[i] = Σ_k taps[k]·x[i+len(taps)−1−k] for the first
// len(out)/16·16 outputs, summing k = 0…len(taps)−1 from +0 with one
// VMULPD and one VADDPD per lane and tap (no FMA), so each lane rounds
// exactly as the Go loops' scalar multiply and add. It needs
// len(taps) ≥ 1 and len(x) ≥ len(out)+len(taps)−1, and uses AVX.
//
//go:noescape
func firAVX16(out, x []complex128, taps []float64)
