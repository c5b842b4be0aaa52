package dsp

import (
	"math/bits"
	"sync"
)

// Buffer pools and the shared FFT-plan cache. Parallel synthesis amplifies
// per-candidate allocation churn — every rehearsal candidate runs a full
// synth+demod pass, and a pool of synthesizers multiplies that again — so
// the transient IQ buffers of the hot paths come from size-bucketed
// sync.Pools, and twiddle factors are computed once per FFT size for the
// whole process instead of once per plan holder.

// planCache shares FFTPlans across the process: a plan is immutable after
// creation (the twiddle and bit-reversal tables are read-only), so every
// synthesizer, modulator and receiver can use the same one concurrently.
var planCache sync.Map // int -> *FFTPlan

// PlanFor returns the process-wide shared FFT plan for size n, creating
// it on first use. The returned plan is safe for concurrent use.
func PlanFor(n int) (*FFTPlan, error) {
	if v, ok := planCache.Load(n); ok {
		return v.(*FFTPlan), nil
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(n, p)
	return v.(*FFTPlan), nil
}

// bucketed pools: bucket i holds slices with capacity 1<<i. Requests round
// up to the next power of two, so a released buffer serves any request of
// its bucket.

const poolBuckets = 28 // up to 2^27 elements — far beyond any packet span

var complexPool [poolBuckets]sync.Pool

func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// GetComplex returns a []complex128 of length n from the pool. The
// contents are undefined; callers must overwrite every element they read.
func GetComplex(n int) []complex128 {
	b := bucketFor(n)
	if b >= poolBuckets {
		return make([]complex128, n)
	}
	if v := complexPool[b].Get(); v != nil {
		return (*v.(*[]complex128))[0:n]
	}
	return make([]complex128, n, 1<<b)
}

// PutComplex returns a buffer obtained from GetComplex to the pool.
func PutComplex(buf []complex128) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return // not one of ours; let it be collected
	}
	b := bucketFor(c)
	if b >= poolBuckets {
		return
	}
	buf = buf[:0]
	complexPool[b].Put(&buf)
}
