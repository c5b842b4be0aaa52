package eval

import (
	"fmt"
	"time"

	"bluefi/internal/bt"
	"bluefi/internal/core"
	"bluefi/internal/gfsk"
)

// §4.8 — execution time and complexity: the paper's C pipeline generates
// a packet in 46.88 ms with almost all time in the Viterbi FEC decoder;
// the real-time decoder cuts that by ≈50× to under the 1.25 ms slot-pair
// budget. The shape to reproduce: FEC dominates quality mode, and the
// real-time mode is dramatically faster and fits the budget.

// TimingResult summarizes packet-generation time for one mode.
type TimingResult struct {
	Mode      string
	Packet    string
	Mean      time.Duration
	Breakdown core.Timings
}

// Sec48Timings measures both modes on 1-slot and 5-slot packets.
func Sec48Timings(iterations int) ([]TimingResult, error) {
	var out []TimingResult
	for _, mode := range []core.Mode{core.Quality, core.RealTime} {
		opts := core.DefaultOptions()
		opts.Mode = mode
		opts.GFSK = gfsk.BRConfig()
		// The paper's §2.5/§4.8 pipeline: fixed scale factor, no
		// per-packet search — its per-stage costs are what we compare.
		opts.PSDUOnly = true
		s, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		for _, pkt := range []struct {
			name string
			p    *bt.Packet
		}{
			{"1-slot (DH1)", &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: make([]byte, 27)}},
			{"5-slot (DH5)", &bt.Packet{Type: bt.DH5, LTAddr: 1, Payload: make([]byte, 300)}},
		} {
			var total time.Duration
			var breakdown core.Timings
			for i := 0; i < iterations; i++ {
				air, err := airAtClock(pkt.p, i)
				if err != nil {
					return nil, err
				}
				res, err := s.Synthesize(air, BeaconFrequencyMHz)
				if err != nil {
					return nil, err
				}
				total += res.Timings.Total()
				breakdown.Add(res.Timings)
			}
			out = append(out, TimingResult{
				Mode:   mode.String(),
				Packet: pkt.name,
				Mean:   total / time.Duration(iterations),
				Breakdown: core.Timings{
					IQGen:    breakdown.IQGen / time.Duration(iterations),
					FFTQAM:   breakdown.FFTQAM / time.Duration(iterations),
					FEC:      breakdown.FEC / time.Duration(iterations),
					Scramble: breakdown.Scramble / time.Duration(iterations),
				},
			})
		}
	}
	return out, nil
}

// airAtClock stamps the packet with iteration i's slot clock (every
// fourth slot, as a live link would) and returns its air bits: the clock
// seeds the whitening, so each iteration synthesizes a different packet.
func airAtClock(p *bt.Packet, i int) ([]byte, error) {
	p.Clock = uint32(4 * i)
	return p.AirBits(evalDevice)
}

// Speedup returns real-time vs quality mean-time ratio for a packet name.
func Speedup(results []TimingResult, packet string) float64 {
	var q, r time.Duration
	for _, res := range results {
		if res.Packet != packet {
			continue
		}
		if res.Mode == "quality" {
			q = res.Mean
		} else {
			r = res.Mean
		}
	}
	if r == 0 {
		return 0
	}
	return float64(q) / float64(r)
}

// FormatTimings renders the §4.8 table.
func FormatTimings(results []TimingResult) string {
	out := "§4.8 — packet generation time\n"
	for _, r := range results {
		out += fmt.Sprintf("  %-9s %-13s total=%8s (IQ=%s FFT+QAM=%s FEC=%s scramble=%s)\n",
			r.Mode, r.Packet, r.Mean.Round(time.Microsecond),
			r.Breakdown.IQGen.Round(time.Microsecond),
			r.Breakdown.FFTQAM.Round(time.Microsecond),
			r.Breakdown.FEC.Round(time.Microsecond),
			r.Breakdown.Scramble.Round(time.Microsecond))
	}
	out += fmt.Sprintf("  real-time speedup: 1-slot %.0f×, 5-slot %.0f× (budget: 1.25 ms per slot pair)\n",
		Speedup(results, "1-slot (DH1)"), Speedup(results, "5-slot (DH5)"))
	return out
}
