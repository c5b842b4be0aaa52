package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// now is the benchmark's only clock read; every timestamp and duration it
// reports derives from it.
func now() time.Time {
	return time.Now() //bluefi:nondeterministic-ok the benchmark measures wall-clock time
}

// ms converts a duration for reporting.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// minBeyond is how many samples must lie above a percentile before it is
// reported as resolved.
const minBeyond = 10

// ladder lists the percentiles a tail may resolve to, in tenths of a
// percent so rank arithmetic stays exact.
var ladder = []int{500, 750, 900, 950, 990, 999}

// beyond returns how many of n samples lie above the percentile q (in
// tenths of a percent) under nearest-rank selection.
func beyond(n, q int) int { return n - (n*q+999)/1000 }

// resolvedPercentile returns the highest ladder percentile with at least
// minBeyond of n samples above it; ok is false when even the median is
// unresolved.
func resolvedPercentile(n int) (pct float64, ok bool) {
	for i := len(ladder) - 1; i >= 0; i-- {
		if beyond(n, ladder[i]) >= minBeyond {
			return float64(ladder[i]) / 10, true
		}
	}
	return 0, false
}

// resolved reports whether the percentile pct (0–100) has at least
// minBeyond of n samples above it.
func resolved(n int, pct float64) bool { return beyond(n, int(math.Round(pct*10))) >= minBeyond }

// percentile returns the pct-th percentile (0–100) of ascending samples,
// interpolating linearly between closest ranks; 0 for no samples.
func percentile(sorted []float64, pct float64) float64 {
	switch len(sorted) {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := pct / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs in ascending order without modifying it.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reservoir keeps a uniform random sample of at most cap(buf) values, so a
// closed loop issuing millions of calls reports percentiles from bounded
// memory that the heap metric does not grow with.
type reservoir struct {
	buf  []float64
	seen int
	rng  *rand.Rand
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{buf: make([]float64, 0, capacity), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	if j := r.rng.Intn(r.seen); j < len(r.buf) {
		r.buf[j] = v
	}
}

// derive mixes the run seed with a stream tag and an index (splitmix64),
// so every generated input has its own reproducible seed.
func derive(seed int64, stream, index uint64) int64 {
	z := uint64(seed) ^ stream*0xD1B54A32D192ED03
	z += 0x9E3779B97F4A7C15 * (index + 1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E9B5
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
