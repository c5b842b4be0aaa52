package gfsk

import "testing"

// TestNRZAllocFree holds the NRZ expansion to zero heap allocations per
// call on a warm buffer.
func TestNRZAllocFree(t *testing.T) {
	air := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	const spb, pad = 20, 40
	dst := make([]float64, 2*pad+len(air)*spb)
	if a := testing.AllocsPerRun(10, func() { nrzInto(dst, air, spb, pad) }); a != 0 {
		t.Errorf("nrzInto: %v allocs/call, want 0", a)
	}
}
