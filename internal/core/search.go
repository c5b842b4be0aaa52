package core

import (
	"context"
	"math"
	"runtime"
	"sync"

	"bluefi/internal/bt"
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
// Each PhaseSearch candidate — a (rotation, extra-lead) pair — is a
// synth+demod pass independent of the others but for the work they all
// share (searchShared), so the search hands them out
// in candidate order to a bounded pool of worker synthesizers (the
// synthesizer itself when serial). Determinism is the contract:
// candidates are evaluated concurrently but SELECTED strictly in
// candidate order, replaying the serial rules over the completed prefix,
// so every parallelism returns a bit-identical PSDU (and identical
// RehearsalMismatches). Parallelism only adds wasted work: candidates
// already running when the winner becomes known.

// The candidate grid of the rehearsal search: four phase quadrants per
// extra-lead group, further groups only when the previous ones still
// rehearse dirty.
var (
	searchRotations = [...]float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2}
	searchLeads     = [...]int{0, 1, 2}
)

// searchShared is the work every candidate of one search reads but none
// needs to repeat: the channel plan, the CP phase error of each lead
// group and the ideal waveform's rehearsal. Each value is computed once,
// by the first candidate that asks, under its sync.Once, and is
// read-only afterwards, so worker clones share it without further
// locking and every parallelism sees the same floats. The unsearched
// path synthesizes candidate 0 through the same struct.
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

// searchParallelism resolves Options.SearchParallelism: 0 sizes the pool
// to GOMAXPROCS, and anything larger than the rotation-group width is
// clamped — the search usually stops within the first group, so extra
// workers would mostly evaluate candidates past the winner.
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

// ensureWorkers builds the worker clones on first use. Each worker is a
// full Synthesizer with the same options (forced serial so workers never
// recurse into their own pools): every piece of mutable scratch — FFT
// buffers, FIR state, pilot cache, rehearsal receiver — is private to one
// worker, so candidates share no buffers. The FFT twiddle tables are
// process-shared read-only state (dsp.PlanFor).
func (s *Synthesizer) ensureWorkers(n int) error {
	opts := s.opts
	opts.SearchParallelism = 1
	for len(s.workers) < n {
		w, err := New(opts)
		if err != nil {
			return err
		}
		s.workers = append(s.workers, w)
	}
	return nil
}

// searchDone is one evaluated candidate, with the worker that ran it.
type searchDone struct {
	k   int
	w   *Synthesizer
	res *Result
	r   rehearsal
	err error
}

// search runs the rehearsal-scored candidate search for a packet with the
// given FEC layout (rehearsed-bit coordinates). Candidates go out in
// candidate order, one per free worker; each completion extends the
// contiguous completed prefix the selection replays, and once the replay
// stops no further candidate starts. The serial search is the same loop
// with the synthesizer as its only worker.
func (s *Synthesizer) search(ctx context.Context, sh *searchShared, layout bt.FECLayout) (*Result, error) {
	free := []*Synthesizer{s}
	if p := s.searchParallelism(); p > 1 {
		if err := s.ensureWorkers(p); err != nil {
			return nil, err
		}
		free = append([]*Synthesizer(nil), s.workers[:p]...)
	}
	total := len(searchLeads) * len(searchRotations)
	done := make([]*searchDone, total)
	results := make(chan *searchDone, len(free)) // one slot per worker: no send blocks
	sel := selection{layout: layout, bestMis: math.MaxInt, bestMargin: math.Inf(-1)}
	var searched Timings // all candidates' stage time, reported on the winner
	var err error
	next, replayed, running, stopped := 0, 0, 0, false
	for {
		for ; !stopped && next < total && len(free) > 0; next++ {
			w := free[len(free)-1]
			free = free[:len(free)-1]
			running++
			go func(d *searchDone) {
				d.res, d.err = d.w.synthesizeCandidate(ctx, sh, d.k)
				if d.err == nil {
					d.r = d.w.rehearse(ctx, sh, d.k, d.res)
				}
				results <- d
			}(&searchDone{k: next, w: w})
		}
		if running == 0 {
			break
		}
		d := <-results
		running--
		free = append(free, d.w)
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
