package viterbi

import "testing"

// TestKernelsAllocFree holds the add-compare-select kernels to zero heap
// allocations per call: they run once per trellis step of every
// rehearsal candidate.
func TestKernelsAllocFree(t *testing.T) {
	var metric, next [numStates]float64
	for i := range metric {
		metric[i] = float64(i % 7)
	}
	var sinkW uint64
	var sinkF float64
	cases := []struct {
		name string
		call func()
	}{
		{"acsStep", func() { sinkW = acsStep(&next, &metric, 1, 0, 0.5, 2) }},
		{"acs", func() { sinkF, sinkW = acs(1, 2); sinkF, sinkW = acs(2, 1) }},
		{"pin", func() { pin(&next, 0); pin(&next, 1) }},
	}
	for _, c := range cases {
		if a := testing.AllocsPerRun(10, c.call); a != 0 {
			t.Errorf("%s: %v allocs/call, want 0", c.name, a)
		}
	}
	_, _ = sinkW, sinkF
}
