package wifi

import "testing"

// TestKernelsAllocFree holds the per-subcarrier and per-symbol kernels
// of the synthesis fitting loop to zero heap allocations per call on
// warm buffers, their early returns included.
func TestKernelsAllocFree(t *testing.T) {
	it, err := NewInterleaver(208, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	in, out := make([]byte, 208), make([]byte, 208)
	qam := NewMapper(QAM64)
	bpsk := NewMapper(BPSK)
	// A mapper with one grid level unassigned drives axisIdx's
	// off-table return.
	holey := NewMapper(QAM16)
	holey.invAxis[0] = -1
	s := NewScrambler(0x5d)
	bits := make([]byte, 64)

	var sinkB bool
	var sinkI int
	var sinkY byte
	cases := []struct {
		name string
		call func()
	}{
		{"Interleaver.DeinterleaveInto", func() { sinkB = it.DeinterleaveInto(out, in) }},
		{"Interleaver.DeinterleaveInto/short", func() { sinkB = it.DeinterleaveInto(out[:10], in) }},
		{"Mapper.DemapInto", func() { sinkB = qam.DemapInto(out, complex(3, -5)) }},
		{"Mapper.DemapInto/off-grid", func() { sinkB = qam.DemapInto(out, complex(2, 1)) || qam.DemapInto(out, complex(1, 2)) }},
		{"Mapper.DemapInto/short", func() { sinkB = qam.DemapInto(out[:2], 1) || bpsk.DemapInto(out[:0], 1) }},
		{"Mapper.DemapInto/bpsk", func() { sinkB = bpsk.DemapInto(out, 1) && bpsk.DemapInto(out, -1) }},
		{"Mapper.axisIdx", func() { _, sinkB = qam.axisIdx(99); sinkI, _ = qam.axisIdx(-7) }},
		{"Mapper.axisIdx/unassigned", func() { _, sinkB = holey.axisIdx(-3) }},
		{"Scrambler.NextBit", func() { sinkY = s.NextBit() }},
		{"Scrambler.Scramble", func() { s.Scramble(bits) }},
		{"Scrambler.SequenceInto", func() { s.SequenceInto(bits) }},
	}
	for _, c := range cases {
		if a := testing.AllocsPerRun(10, c.call); a != 0 {
			t.Errorf("%s: %v allocs/call, want 0", c.name, a)
		}
	}
	_, _, _ = sinkB, sinkI, sinkY
}
