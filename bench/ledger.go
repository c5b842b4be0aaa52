package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"bluefi"
)

// counts is the part of the program's own telemetry (Options.Telemetry)
// the per-layer ledger reads. Take one at the start of the measured
// window and one at its end and subtract, so set-up work drops out. A nil
// registry reads as zero.
type counts struct {
	jobs, jobSecs         float64 // bluefi_pool_job_seconds
	synths, synthSecs     float64 // bluefi_core_synth_seconds
	stage                 [4]float64
	candidates, dirty     float64
	trellis, rtInversions float64
	reslots               float64
}

// stageNames are the bluefi_core_stage_seconds labels, in counts.stage
// order.
var stageNames = [4]string{"iqgen", "fftqam", "fec", "scramble"}

func readCounts(reg *bluefi.Telemetry) counts {
	var c counts
	for _, f := range reg.Snapshot().Families {
		for _, m := range f.Metrics {
			switch f.Name {
			case "bluefi_pool_job_seconds":
				c.jobs += float64(m.Count)
				c.jobSecs += m.Sum
			case "bluefi_core_synth_seconds":
				c.synths += float64(m.Count)
				c.synthSecs += m.Sum
			case "bluefi_core_stage_seconds":
				for _, l := range m.Labels {
					for i, s := range stageNames {
						if l.Key == "stage" && l.Value == s {
							c.stage[i] += m.Sum
						}
					}
				}
			case "bluefi_core_rehearsal_candidates_total":
				c.candidates += float64(m.Value)
			case "bluefi_core_rehearsal_dirty_total":
				c.dirty += float64(m.Value)
			case "bluefi_viterbi_trellis_steps_total":
				c.trellis += float64(m.Value)
			case "bluefi_viterbi_rt_inversions_total":
				c.rtInversions += float64(m.Value)
			case "bluefi_a2dp_reslots_total":
				c.reslots += float64(m.Value)
			}
		}
	}
	return c
}

func (c counts) minus(b counts) counts {
	c.jobs -= b.jobs
	c.jobSecs -= b.jobSecs
	c.synths -= b.synths
	c.synthSecs -= b.synthSecs
	for i := range c.stage {
		c.stage[i] -= b.stage[i]
	}
	c.candidates -= b.candidates
	c.dirty -= b.dirty
	c.trellis -= b.trellis
	c.rtInversions -= b.rtInversions
	c.reslots -= b.reslots
	return c
}

// poolWait returns the mean time a pool job waited between submission and
// the start of its execution, in ms, over the jobs that started at or
// after since. Each submission time is the start of the public call that
// enqueued the job; with every job of the window both submitted and
// started, the mean wait is the difference of the two sums whichever job
// ran first. It also returns how many job starts it found.
func poolWait(reg *bluefi.Telemetry, since time.Time, submits []time.Time) (float64, int) {
	var starts float64
	n := 0
	for _, s := range reg.RecentSpans() {
		if s.Name == "pool.job" && !s.Start.Before(since) {
			starts += float64(s.Start.Sub(since))
			n++
		}
	}
	var subs float64
	for _, t := range submits {
		subs += float64(t.Sub(since))
	}
	if n == 0 {
		return 0, 0
	}
	return (starts - subs) / float64(n) / 1e6, n
}

// sampler polls the live heap, and the queue of whichever pool is being
// measured, every 10 ms. The live heap is what the last GC cycle marked
// reachable, so the peak does not depend on when garbage was collected.
type sampler struct {
	stop, done chan struct{}
	pool       atomic.Pointer[bluefi.Pool]

	mu       sync.Mutex
	heapPeak uint64 // guarded by mu
	heapOn   bool   // guarded by mu
	depthSum int    // guarded by mu
	depthN   int    // guarded by mu
}

const sampleEvery = 10 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		metrics.Read(heap)
		p := s.pool.Load()
		depth := 0
		if p != nil {
			depth = p.QueueDepth()
		}
		s.mu.Lock()
		if s.heapOn && heap[0].Value.Uint64() > s.heapPeak {
			s.heapPeak = heap[0].Value.Uint64()
		}
		if p != nil {
			s.depthSum += depth
			s.depthN++
		}
		s.mu.Unlock()
	}
}

// measure turns heap sampling on or off; the heap peak covers only the
// measured window, which starts from a freshly collected heap.
func (s *sampler) measure(on bool) {
	if on {
		runtime.GC()
	}
	s.mu.Lock()
	s.heapOn = on
	s.mu.Unlock()
}

// halt stops the sampler and waits for it to exit.
func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}

func (s *sampler) heapPeakMB() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.heapPeak) / (1 << 20)
}

// queueDepth returns the mean sampled queue depth and the sample count.
func (s *sampler) queueDepth() (float64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ratio(float64(s.depthSum), float64(s.depthN)), s.depthN
}
