package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"bluefi/internal/bt"
	"bluefi/internal/dsp"
	"bluefi/internal/wifi"
)

// Rehearsal search. The square constellation is invariant under π/2
// rotations, but the pilots' fixed phase is not — the four quadrants put
// the deterministic pilot interference in different relative positions.
// A second free axis: extra lead padding. The lead grows by whole
// 72-sample symbols, so bit boundaries meet the CP corruption at the same
// places in every lead group; what a group changes is the OFDM symbol
// index each part of the packet lands in (pilot polarity and scrambler
// bits), the symbol count, and the carrier phase (slope·72 per extra
// symbol). Each candidate is scored by REHEARSING reception:
// demodulate the predicted waveform with a nominal receiver chain and
// compare per-bit decisions against the ideal waveform's (cf. the
// Recitation idea the paper cites [39]). RMS phase error does not
// localize the damage to weak bits; rehearsal does, and only located
// damage can be weighed against the packet's FEC.
//
// Each search candidate — a (rotation, extra-lead) pair — is a
// synth+demod pass independent of the others but for the work they all
// share (searchShared), so the search hands them out in candidate order
// to worker synthesizers: the synthesizer itself first, then at most
// p−1 lazily built clones. Determinism is the contract: candidates are
// evaluated concurrently but SELECTED strictly in candidate order,
// replaying the serial rules over the completed prefix, so every
// parallelism returns a bit-identical PSDU (and identical
// RehearsalMismatches). Parallelism only borrows CPUs that are idle
// (busySlots): the first running candidate uses the caller's own CPU,
// and each further one starts only on a slot no other synthesis holds.
// A saturated process — a pool with every worker busy — therefore
// searches serially and evaluates nothing past the winner; idle CPUs
// turn into concurrent candidates, whose only waste is the candidates
// already running when the winner becomes known.

// The candidate grid of the rehearsal search: four phase quadrants per
// extra-lead group, further groups only when the previous ones still
// rehearse dirty.
var (
	searchRotations = [...]float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2}
	searchLeads     = [...]int{0, 1, 2}
)

// searchShared is the work every candidate of one search reads but none
// needs to repeat: the channel plan, the mix-down table, the CP phase
// error of each lead group and the ideal waveform's rehearsal. Each
// value is computed once, by the first candidate that asks, under its
// sync.Once, and is read-only afterwards, so worker clones share it
// without further locking and every parallelism sees the same floats.
// The unsearched path synthesizes candidate 0 through the same struct.
type searchShared struct {
	pkt   []float64 // baseband phase trajectory, transmit pads included
	plan  ChannelPlan
	leads [len(searchLeads)]struct {
		once sync.Once
		dphi []float64 // clipped CP phase error of the rotation-0 layout
		err  error
	}
	ideal struct {
		once sync.Once
		bits []byte
		acc  []float64
	}
	mix struct {
		once sync.Once
		rot  []complex128
	}
}

// rotations returns the search's mix-down table, the factors
// e^{−j2π·offset·n/20 MHz} over the longest candidate frame (the last
// lead group's). Every waveform the search brings to the Bluetooth
// channel — both sides of each CP phase error, the ideal and candidate
// rehearsals, the winner's fidelity — starts at n = 0 and fits in that
// frame, so each mixes by a prefix of one table instead of evaluating
// its own factors. The table lives as long as the search.
func (sh *searchShared) rotations() []complex128 {
	sh.mix.once.Do(func() {
		_, nsym := frameSymbols(len(sh.pkt), searchLeads[len(searchLeads)-1])
		sh.mix.rot = dsp.Rotations(-sh.plan.OffsetHz, wifi.SampleRate, nsym*symbolLen)
	})
	return sh.mix.rot
}

// searchCleanMargin is the decision-margin threshold an FEC-unprotected
// block's agreeing bits must clear for the block to count as decoding.
const searchCleanMargin = 0.2

// rehearsal is one candidate's synthesis-time reception rehearsal,
// indexed by rehearsed bit: bit 0 starts the phase trajectory, transmit
// pad included.
type rehearsal struct {
	// mismatches lists, ascending, the bits whose decision differs from
	// the ideal waveform's.
	mismatches []int
	// margins holds each agreeing, confidently decided bit's normalized
	// decision margin, +Inf for every other bit; nil when nothing was
	// rehearsed.
	margins []float64
}

// decodes is the search's "will it decode" predicate: whether a receiver
// recovers the rehearsed candidate through the packet's FEC. layout is in
// rehearsed-bit coordinates, blocks ascending. A block with correction
// capacity t ≥ 1 decodes with at most t mismatches; a block without FEC
// (t = 0) needs no mismatch and every agreeing bit's margin above
// searchCleanMargin. Bits in no block are ignored. A nil layout is one
// unprotected block over every rehearsed bit — the rule for BLE and EDR
// packets, whose PDUs no code protects.
func decodes(r rehearsal, layout bt.FECLayout) bool {
	if r.margins == nil {
		return false // nothing rehearsed predicts nothing
	}
	if layout == nil {
		return len(r.mismatches) == 0 && r.blockMargin(0, len(r.margins)) > searchCleanMargin
	}
	mis := r.mismatches
	for _, b := range layout {
		for len(mis) > 0 && mis[0] < b.Start {
			mis = mis[1:]
		}
		n := 0
		for n < len(mis) && mis[n] < b.Start+b.Len {
			n++
		}
		if n > b.Correctable {
			return false
		}
		if b.Correctable == 0 && r.blockMargin(b.Start, b.Start+b.Len) <= searchCleanMargin {
			return false
		}
	}
	return true
}

// blockMargin is the worst agreeing margin over bits [lo, hi).
func (r rehearsal) blockMargin(lo, hi int) float64 {
	hi = min(hi, len(r.margins))
	m := math.Inf(1)
	for i := lo; i < hi; i++ {
		m = min(m, r.margins[i])
	}
	return m
}

// selection replays the serial search's selection rules over candidates
// fed in candidate order.
type selection struct {
	layout     bt.FECLayout
	best       *Result
	bestMis    int
	bestMargin float64
}

// offer feeds candidate k and reports whether the search stops there:
// at the first candidate the packet's FEC decodes — which wins — or at
// the end of a lead group that holds a zero-mismatch candidate. Until
// then the best candidate has the fewest mismatches, then the largest
// margin, ties to the earlier candidate.
func (sel *selection) offer(k int, res *Result, r rehearsal) bool {
	mis := len(r.mismatches)
	res.RehearsalMismatches = mis
	if decodes(r, sel.layout) {
		res.RehearsalDecodes = true
		sel.best = res
		return true
	}
	margin := r.blockMargin(0, len(r.margins))
	if sel.best == nil || mis < sel.bestMis || (mis == sel.bestMis && margin > sel.bestMargin) {
		sel.best, sel.bestMis, sel.bestMargin = res, mis, margin
	}
	return (k+1)%len(searchRotations) == 0 && sel.bestMis == 0
}

// searchParallelism resolves Options.SearchParallelism: 0 bounds the
// search by GOMAXPROCS, and anything larger than the rotation-group width
// is clamped — the search usually stops within the first group, so more
// concurrent candidates would mostly run past the winner.
func (s *Synthesizer) searchParallelism() int {
	p := s.opts.SearchParallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(searchRotations) {
		p = len(searchRotations)
	}
	return p
}

// busySlots counts the syntheses and search helpers running in the
// process. A synthesis holds one slot, its caller's CPU, for its whole
// duration, taken unconditionally. A search helper — a candidate running
// beside the search's first — holds a slot only if takeIdleSlot found one
// free under GOMAXPROCS, and gives it back when its candidate finishes.
var busySlots atomic.Int64

// takeIdleSlot claims a slot for a search helper when fewer than
// GOMAXPROCS are held. It never blocks: with every CPU taken the search
// continues serially on its caller's slot.
func takeIdleSlot() bool {
	limit := int64(runtime.GOMAXPROCS(0))
	for {
		n := busySlots.Load()
		if n >= limit {
			return false
		}
		if busySlots.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// candidateFault, when set, is asked before each search candidate runs
// and fails the candidate with the error it returns: the test hook for a
// candidate failing mid-search.
var candidateFault func(k int) error

// newWorker builds a worker clone: a full Synthesizer with the same
// options, ablation toggles and pilot cache (forced serial so clones
// never search on their own). Every piece of mutable scratch — FFT
// buffers, in-band scratch, weights, rehearsal receiver — is private to
// one worker, so candidates share no buffers. Shared state is read-only
// once built: the FFT twiddle tables (dsp.PlanFor) and the in-band pilot
// predictions (pilotCache).
func (s *Synthesizer) newWorker() (*Synthesizer, error) {
	opts := s.opts
	opts.SearchParallelism = 1
	w, err := New(opts)
	if err != nil {
		return nil, err
	}
	w.ablate, w.pilots = s.ablate, s.pilots
	return w, nil
}

// searchDone is one evaluated candidate, with the worker that ran it and
// whether it ran on a helper slot rather than the caller's.
type searchDone struct {
	k      int
	w      *Synthesizer
	helper bool
	res    *Result
	r      rehearsal
	err    error
}

// search runs the rehearsal-scored candidate search for a packet with the
// given FEC layout (rehearsed-bit coordinates). Candidates go out in
// candidate order: one on the caller's slot, more beside it while
// searchParallelism allows and takeIdleSlot finds idle CPUs. Each
// completion extends the contiguous completed prefix the selection
// replays, and once the replay stops no further candidate starts. With
// no idle CPU the search is the serial loop on the synthesizer alone.
func (s *Synthesizer) search(ctx context.Context, sh *searchShared, layout bt.FECLayout) (*Result, error) {
	p := s.searchParallelism()
	free := append(append(make([]*Synthesizer, 0, p), s.workers...), s) // s goes out first
	total := len(searchLeads) * len(searchRotations)
	done := make([]*searchDone, total)
	results := make(chan *searchDone, p) // one slot per running candidate: no send blocks
	sel := selection{layout: layout, bestMis: math.MaxInt, bestMargin: math.Inf(-1)}
	var searched Timings // all candidates' stage time, reported on the winner
	var err error
	next, replayed, running, stopped := 0, 0, 0, false
	callerBusy := false // a candidate is running on the caller's slot
	for {
		for ; !stopped && next < total && running < p; next++ {
			helper := callerBusy
			if helper && !takeIdleSlot() {
				break // no idle CPU: wait for the running candidate
			}
			if len(free) == 0 {
				w, werr := s.newWorker()
				if werr != nil {
					if helper {
						busySlots.Add(-1)
					}
					err, stopped = werr, true
					break
				}
				s.workers = append(s.workers, w)
				free = append(free, w)
			}
			d := &searchDone{k: next, w: free[len(free)-1], helper: helper}
			free = free[:len(free)-1]
			callerBusy = true
			running++
			s.searchPeak = max(s.searchPeak, running)
			go func(d *searchDone) {
				if candidateFault != nil {
					d.err = candidateFault(d.k)
				}
				if d.err == nil {
					d.res, d.err = d.w.synthesizeCandidate(ctx, sh, d.k)
				}
				if d.err == nil {
					d.r = d.w.rehearse(ctx, sh, d.k, d.res)
				}
				results <- d
			}(d)
		}
		if running == 0 {
			break
		}
		d := <-results
		running--
		free = append(free, d.w)
		if d.helper {
			busySlots.Add(-1)
		} else {
			callerBusy = false
		}
		if d.res != nil {
			searched.Add(d.res.Timings)
		}
		if stopped {
			continue // finished past the winner: counted, not kept
		}
		done[d.k] = d
		for ; !stopped && replayed < total && done[replayed] != nil; replayed++ {
			c := done[replayed]
			done[replayed] = nil // only the selection keeps a candidate alive
			if c.err != nil {
				err, stopped = c.err, true
				break
			}
			stopped = sel.offer(replayed, c.res, c.r)
		}
	}
	if err != nil {
		return nil, err
	}
	sel.best.Timings = searched
	return sel.best, nil
}
