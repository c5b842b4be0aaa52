package main

import (
	"fmt"
	"sort"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/core"
	"bluefi/internal/gfsk"
	"bluefi/internal/obs"
)

// overheadBudget caps how much an attached telemetry registry may slow
// the §4.8 real-time synthesis path (DESIGN.md §8: ≤5% on ns/op).
const overheadBudget = 1.05

// runObsOverhead measures BenchmarkSynthesize-equivalent ns/op with
// telemetry disabled and attached, and fails when the attached/disabled
// ratio exceeds the budget. The two configurations are measured in
// interleaved pairs — CPU frequency drift on shared runners easily
// swings sequential measurements by more than the 5% budget, while a
// paired ratio taken seconds apart cancels it — and the verdict is the
// median of the per-round ratios. CI runs this via `make obs-overhead`.
func runObsOverhead() error {
	pkt := &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: make([]byte, 17)}
	air, err := pkt.AirBits(bt.Device{LAP: 0x123456, UAP: 0x9A})
	if err != nil {
		return err
	}
	newSynth := func(reg *obs.Registry) (*core.Synthesizer, error) {
		opts := core.DefaultOptions()
		opts.Mode = core.RealTime
		opts.GFSK = gfsk.BRConfig()
		opts.PSDUOnly = true
		opts.Telemetry = reg
		return core.New(opts)
	}
	sOff, err := newSynth(nil)
	if err != nil {
		return err
	}
	sOn, err := newSynth(obs.NewRegistry())
	if err != nil {
		return err
	}
	measure := func(s *core.Synthesizer) (float64, error) {
		var synthErr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Synthesize(air, 2426); err != nil {
					synthErr = err
					return
				}
			}
		})
		if synthErr != nil {
			return 0, synthErr
		}
		return float64(r.NsPerOp()), nil
	}

	const rounds = 7
	ratios := make([]float64, 0, rounds)
	fmt.Printf("telemetry overhead on real-time synthesis (DM1, PSDU only, %d paired rounds):\n", rounds)
	for round := 0; round < rounds; round++ {
		// Alternate measurement order so a drifting clock penalizes each
		// configuration equally often.
		first, second := sOff, sOn
		if round%2 == 1 {
			first, second = sOn, sOff
		}
		a, err := measure(first)
		if err != nil {
			return err
		}
		b, err := measure(second)
		if err != nil {
			return err
		}
		off, on := a, b
		if round%2 == 1 {
			off, on = b, a
		}
		ratios = append(ratios, on/off)
		fmt.Printf("  round %d: disabled %9.0f ns/op  attached %9.0f ns/op  ratio %.3f\n",
			round+1, off, on, on/off)
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	fmt.Printf("  median ratio: %.3f (budget %.2f)\n", ratio, overheadBudget)
	if ratio > overheadBudget {
		return fmt.Errorf("telemetry overhead %.3f exceeds %.2f budget", ratio, overheadBudget)
	}
	return nil
}
