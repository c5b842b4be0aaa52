package main

import "testing"

func TestResolvedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median has only 9 samples above it
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true}, // p90 would have 9 above it
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := resolvedPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("resolvedPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if tc.ok != resolved(tc.n, 50) {
			t.Errorf("resolved(%d, 50) disagrees with resolvedPercentile", tc.n)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, tc := range []struct{ pct, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {90, 3.7}} {
		if got := percentile(xs, tc.pct); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.pct, got, tc.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestReservoirKeepsBoundedUniformSample(t *testing.T) {
	r := newReservoir(100, 1)
	for i := 0; i < 10000; i++ {
		r.add(float64(i))
	}
	if len(r.buf) != 100 || r.seen != 10000 {
		t.Fatalf("kept %d of %d", len(r.buf), r.seen)
	}
	// A uniform sample of 0..9999 has its median near 5000.
	if m := median(r.buf); m < 3500 || m > 6500 {
		t.Errorf("reservoir median %v is far from the stream's 5000", m)
	}
}
