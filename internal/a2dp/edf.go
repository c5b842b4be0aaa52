package a2dp

import (
	"math"
	"sort"
)

// EDF slot scheduling (DESIGN.md §14): with many concurrent streams
// sharing one synthesizer pool, FIFO job order services segments in
// submission order even when a later-submitted segment's 625 µs slot is
// closer — the classic priority inversion that turns mild overload into
// cross-stream deadline misses. The pool therefore orders deadline-
// stamped jobs earliest-deadline-first, and the admission controller
// projects headroom for a candidate session set by replaying its
// steady-state job arrivals through the deterministic virtual-slot-time
// simulator below, which picks jobs in the same order the pool does.
// Everything here is pure integer/float arithmetic over explicit
// inputs: same jobs, same worker count, same answer, on any host —
// which is what lets the capacity-knee soak gate on the projection
// without touching the wall clock.

// SlotJob is one synthesis job expressed in slot time: it arrives (is
// submitted) at ArrivalSlot, needs ServiceSlots of one worker, and its
// waveform must be ready by DeadlineSlot (its Bluetooth slot). Infinite
// deadlines mark work with no slot to hit — it consumes capacity but is
// excluded from the slack statistics: −Inf is pre-existing backlog that
// clears first, +Inf is batch work that yields to everything.
type SlotJob struct {
	// Session names the owning stream; part of the deterministic
	// tie-break so replays are byte-stable.
	Session string
	// Seq is the submission order across the whole job set — the final
	// EDF tie-break.
	Seq uint64
	// ArrivalSlot, DeadlineSlot and ServiceSlots are in 625 µs slots
	// (fractional values allowed).
	ArrivalSlot  float64
	DeadlineSlot float64
	ServiceSlots float64
}

// EDFLess is the total order the EDF queue uses: earliest deadline
// first, ties broken by session name then submission sequence — never
// by map order or goroutine timing, so a replayed schedule is
// byte-stable.
func EDFLess(a, b SlotJob) bool {
	if a.DeadlineSlot != b.DeadlineSlot {
		return a.DeadlineSlot < b.DeadlineSlot
	}
	if a.Session != b.Session {
		return a.Session < b.Session
	}
	return a.Seq < b.Seq
}

// SimResult summarizes one virtual-time run of a job set.
type SimResult struct {
	// Jobs counts deadline-bearing jobs (work with infinite deadlines is
	// simulated but not scored).
	Jobs int `json:"jobs"`
	// Misses is how many jobs completed after their deadline.
	Misses int `json:"misses"`
	// MissRatio is Misses/Jobs (0 when Jobs is 0).
	MissRatio float64 `json:"missRatio"`
	// P99SlackSlots / MinSlackSlots summarize DeadlineSlot − completion
	// over the scored jobs. P99 here is the 99th-percentile *lateness*
	// tail: the slack only 1% of jobs fall below. Negative = missed.
	P99SlackSlots float64 `json:"p99SlackSlots"`
	MinSlackSlots float64 `json:"minSlackSlots"`
}

// Simulate runs the job set on `workers` identical workers in virtual
// slot time, non-preemptively, picking the ready job that sorts first
// under EDFLess. It is side-effect-free and fully deterministic; the
// admission controller and the capacity-knee soak share it so
// "projected" and "gated" mean the same schedule.
func Simulate(jobs []SlotJob, workers int) SimResult {
	if workers < 1 {
		workers = 1
	}
	var res SimResult
	if len(jobs) == 0 {
		return res
	}

	// Arrival order: by arrival slot, then submission sequence. Indices
	// into jobs keep the caller's slice untouched.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := jobs[order[i]], jobs[order[j]]
		if a.ArrivalSlot != b.ArrivalSlot {
			return a.ArrivalSlot < b.ArrivalSlot
		}
		return a.Seq < b.Seq
	})

	free := make([]float64, workers)
	ready := make([]int, 0, len(jobs))
	next := 0 // index into order of the next not-yet-arrived job
	slacks := make([]float64, 0, len(jobs))

	for done := 0; done < len(jobs); done++ {
		// The earliest-free worker dispatches next; lowest index wins
		// ties so the schedule is a pure function of the inputs.
		w := 0
		for i := 1; i < workers; i++ {
			if free[i] < free[w] {
				w = i
			}
		}
		t := free[w]
		for next < len(order) && jobs[order[next]].ArrivalSlot <= t {
			ready = append(ready, order[next])
			next++
		}
		if len(ready) == 0 {
			// Idle until the next arrival.
			t = jobs[order[next]].ArrivalSlot
			for next < len(order) && jobs[order[next]].ArrivalSlot <= t {
				ready = append(ready, order[next])
				next++
			}
		}
		pick := 0
		for i := 1; i < len(ready); i++ {
			if EDFLess(jobs[ready[i]], jobs[ready[pick]]) {
				pick = i
			}
		}
		j := jobs[ready[pick]]
		ready = append(ready[:pick], ready[pick+1:]...)

		fin := t + j.ServiceSlots
		free[w] = fin
		if !math.IsInf(j.DeadlineSlot, 0) {
			res.Jobs++
			slack := j.DeadlineSlot - fin
			slacks = append(slacks, slack)
			if slack < 0 {
				res.Misses++
			}
		}
	}

	if res.Jobs > 0 {
		res.MissRatio = float64(res.Misses) / float64(res.Jobs)
		sort.Float64s(slacks)
		res.MinSlackSlots = slacks[0]
		res.P99SlackSlots = slackPercentile(slacks, 0.99)
	}
	return res
}

// slackPercentile returns the slack value p of the jobs fall *below*
// (nearest-rank over the ascending-sorted slice): p=0.99 is the tail
// slack 99% of jobs beat.
func slackPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted)-1) * (1 - p))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
