package wifi

import (
	"fmt"
	"math"
)

// Modulation selects the per-subcarrier constellation.
type Modulation int

// Supported constellations. QAM256 is the 802.11ac extension discussed in
// §5.1 of the BlueFi paper.
const (
	BPSK Modulation = iota
	QPSK
	QAM16
	QAM64
	QAM256
)

func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	case QAM256:
		return "256-QAM"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// BitsPerSymbol returns NBPSC, the coded bits per subcarrier.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	case QAM256:
		return 8
	}
	panic(fmt.Sprintf("wifi: unknown modulation %d", int(m)))
}

// AxisLevels returns the per-axis amplitude levels in grid units
// ({±1} for QPSK, {±1,±3,±5,±7} for 64-QAM, …). BPSK uses the I axis only.
func (m Modulation) AxisLevels() []int {
	n := 1 << uint(m.axisBits())
	out := make([]int, n)
	for i := range out {
		out[i] = 2*i - (n - 1)
	}
	return out
}

func (m Modulation) axisBits() int {
	if m == BPSK {
		return 1
	}
	return m.BitsPerSymbol() / 2
}

// KMod returns the 802.11 normalization factor so constellations have unit
// average energy: grid units are divided by this.
func (m Modulation) KMod() float64 {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return math.Sqrt(2)
	case QAM16:
		return math.Sqrt(10)
	case QAM64:
		return math.Sqrt(42)
	case QAM256:
		return math.Sqrt(170)
	}
	panic(fmt.Sprintf("wifi: unknown modulation %d", int(m)))
}

// axisLUT[b] = amplitude in grid units for the Gray-coded axis bits b (MSB
// first), per the 802.11 constellation tables: level index i carries Gray
// code i^(i>>1).
func (m Modulation) axisLUT() []int {
	n := 1 << uint(m.axisBits())
	lut := make([]int, n)
	for i := 0; i < n; i++ {
		gray := i ^ (i >> 1)
		lut[gray] = 2*i - (n - 1)
	}
	return lut
}

// Mapper converts between coded-bit groups and constellation points in
// grid units (integers; divide by KMod for unit-average-energy symbols).
type Mapper struct {
	mod     Modulation
	lut     []int
	invAxis []int // indexed by (level+max)/2 → Gray bits; −1 off grid
	maxLvl  int
	axisLen int
}

// NewMapper builds a mapper for the modulation.
func NewMapper(m Modulation) *Mapper {
	lut := m.axisLUT()
	maxLvl := len(lut) - 1
	inv := make([]int, len(lut))
	for i := range inv {
		inv[i] = -1
	}
	for b, v := range lut {
		inv[(v+maxLvl)/2] = b
	}
	return &Mapper{mod: m, lut: lut, invAxis: inv, maxLvl: maxLvl, axisLen: m.axisBits()}
}

// Modulation returns the mapper's constellation.
func (mp *Mapper) Modulation() Modulation { return mp.mod }

// Map converts NBPSC bits (b0 first, per the standard's bit ordering:
// first half selects I, second half selects Q, each MSB first) to a grid
// point. BPSK maps its single bit to I ∈ {−1, +1} with Q = 0.
func (mp *Mapper) Map(bits []byte) (complex128, error) {
	nb := mp.mod.BitsPerSymbol()
	if len(bits) != nb {
		return 0, fmt.Errorf("wifi: %v map needs %d bits, got %d", mp.mod, nb, len(bits))
	}
	if mp.mod == BPSK {
		if bits[0]&1 == 1 {
			return complex(1, 0), nil
		}
		return complex(-1, 0), nil
	}
	iBits, qBits := bits[:mp.axisLen], bits[mp.axisLen:]
	return complex(float64(mp.lut[bitsToIdx(iBits)]), float64(mp.lut[bitsToIdx(qBits)])), nil
}

// Demap converts a grid point back to bits. The point must lie exactly on
// the constellation grid (use Quantize first for arbitrary points).
func (mp *Mapper) Demap(p complex128) ([]byte, error) {
	out := make([]byte, mp.mod.BitsPerSymbol())
	if !mp.DemapInto(out, p) {
		return nil, fmt.Errorf("wifi: %v demap: point (%g,%g) off grid", mp.mod, real(p), imag(p))
	}
	return out, nil
}

// DemapInto converts a grid point back to bits, writing exactly
// BitsPerSymbol bytes into dst. It reports false — writing nothing
// useful — when the point is off the constellation grid or dst is too
// short. This is the per-subcarrier kernel of the synthesis fitting
// loop (~52 subcarriers × every OFDM symbol × every rehearsal
// candidate), so it is total and allocation-free; Demap wraps it with
// an error for callers off the hot path.
func (mp *Mapper) DemapInto(dst []byte, p complex128) bool {
	if mp.mod == BPSK {
		if len(dst) < 1 {
			return false
		}
		if real(p) > 0 {
			dst[0] = 1
		} else {
			dst[0] = 0
		}
		return true
	}
	n := mp.axisLen
	if len(dst) < 2*n {
		return false
	}
	ib, ok := mp.axisIdx(int(math.Round(real(p))))
	if !ok {
		return false
	}
	qb, ok := mp.axisIdx(int(math.Round(imag(p))))
	if !ok {
		return false
	}
	for i := 0; i < n; i++ {
		dst[i] = byte(ib>>(n-1-i)) & 1
		dst[n+i] = byte(qb>>(n-1-i)) & 1
	}
	return true
}

// axisIdx returns the Gray-coded axis bits for one level, or false off
// grid.
func (mp *Mapper) axisIdx(lvl int) (int, bool) {
	if lvl < -mp.maxLvl || lvl > mp.maxLvl || (lvl+mp.maxLvl)%2 != 0 {
		return 0, false
	}
	b := mp.invAxis[(lvl+mp.maxLvl)/2]
	if b < 0 {
		return 0, false
	}
	return b, true
}

// Quantize snaps an arbitrary complex value (grid units) to the nearest
// constellation point — the core of BlueFi's I2 compensation (Fig. 4).
// BPSK quantizes to ±1 on the real axis.
func (mp *Mapper) Quantize(v complex128) complex128 {
	if mp.mod == BPSK {
		if real(v) >= 0 {
			return complex(1, 0)
		}
		return complex(-1, 0)
	}
	max := float64(len(mp.lut) - 1) // n levels span ±(n−1)
	return complex(quantizeAxis(real(v), max), quantizeAxis(imag(v), max))
}

func quantizeAxis(x, max float64) float64 {
	// Nearest odd integer, clamped to ±max.
	q := 2*math.Round((x-1)/2) + 1
	if q > max {
		q = max
	}
	if q < -max {
		q = -max
	}
	return q
}

func bitsToIdx(b []byte) int {
	v := 0
	for _, x := range b {
		v = v<<1 | int(x&1)
	}
	return v
}

func idxToBits(v, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = byte(v>>(n-1-i)) & 1
	}
	return out
}
