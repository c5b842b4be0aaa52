package wifi

import "fmt"

// The 802.11 block interleavers. Legacy (clause 17) OFDM uses 16 columns
// over NCBPS coded bits per symbol; HT 20 MHz (clause 19) uses 13 columns —
// the "internal period of 13" the BlueFi paper's real-time decoder exploits.
// Only the first two permutations apply to a single spatial stream (the
// third, frequency rotation, is defined for i_ss > 1).

// Interleaver precomputes the bit permutation for one OFDM symbol.
type Interleaver struct {
	ncbps int
	// perm[k] = position after interleaving of coded bit k.
	perm []int
	inv  []int
}

// NewInterleaver builds an interleaver for ncbps coded bits per symbol,
// nbpsc coded bits per subcarrier, and ncol columns (13 for HT 20 MHz,
// 16 for legacy OFDM). ncbps must be divisible by ncol and by nbpsc.
func NewInterleaver(ncbps, nbpsc, ncol int) (*Interleaver, error) {
	if ncbps%ncol != 0 {
		return nil, fmt.Errorf("wifi: NCBPS %d not divisible by %d columns", ncbps, ncol)
	}
	if nbpsc < 1 || ncbps%nbpsc != 0 {
		return nil, fmt.Errorf("wifi: NCBPS %d not divisible by NBPSC %d", ncbps, nbpsc)
	}
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	it := &Interleaver{
		ncbps: ncbps,
		perm:  make([]int, ncbps),
		inv:   make([]int, ncbps),
	}
	nrow := ncbps / ncol
	for k := 0; k < ncbps; k++ {
		// First permutation: adjacent coded bits go to nonadjacent
		// subcarriers (write row-wise, read column-wise).
		i := nrow*(k%ncol) + k/ncol
		// Second permutation: adjacent bits alternate between more and
		// less significant constellation bits.
		j := s*(i/s) + (i+ncbps-(ncol*i)/ncbps)%s
		it.perm[k] = j
		it.inv[j] = k
	}
	return it, nil
}

// NCBPS returns the block size in coded bits.
func (it *Interleaver) NCBPS() int { return it.ncbps }

// Position returns where coded bit k lands within the interleaved symbol.
func (it *Interleaver) Position(k int) int { return it.perm[k] }

// Source returns which coded bit lands at interleaved position j.
func (it *Interleaver) Source(j int) int { return it.inv[j] }

// Interleave permutes one symbol's worth of coded bits.
// len(in) must equal NCBPS.
func (it *Interleaver) Interleave(in []byte) []byte {
	if len(in) != it.ncbps {
		panic(fmt.Sprintf("wifi: interleave block of %d bits, want %d", len(in), it.ncbps))
	}
	out := make([]byte, it.ncbps)
	for k, j := range it.perm {
		out[j] = in[k]
	}
	return out
}

// Deinterleave inverts Interleave.
func (it *Interleaver) Deinterleave(in []byte) []byte {
	if len(in) != it.ncbps {
		panic(fmt.Sprintf("wifi: deinterleave block of %d bits, want %d", len(in), it.ncbps))
	}
	out := make([]byte, it.ncbps)
	it.DeinterleaveInto(out, in)
	return out
}

// DeinterleaveInto inverts Interleave, writing NCBPS bits into dst and
// reporting false when either slice is shorter than NCBPS.
func (it *Interleaver) DeinterleaveInto(dst, in []byte) bool {
	if len(in) < it.ncbps || len(dst) < it.ncbps {
		return false
	}
	for k, j := range it.perm {
		dst[k] = in[j]
	}
	return true
}

// SubcarrierOfCodedBit returns, for a coded (pre-interleaving) bit index k
// within one symbol, the data subcarrier it modulates and which of the
// NBPSC constellation bits it becomes, given the symbol's data subcarrier
// list. This is the mapping behind Table 1 of the BlueFi paper.
func (it *Interleaver) SubcarrierOfCodedBit(k, nbpsc int, dataSubs []int) (subcarrier, bitInSymbol int) {
	j := it.perm[k]
	return dataSubs[j/nbpsc], j % nbpsc
}
