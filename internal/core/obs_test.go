package core

import (
	"math"
	"testing"
	"time"

	"bluefi/internal/bt"
	"bluefi/internal/gfsk"
	"bluefi/internal/obs"
)

// TestTelemetryStageConsistency checks the acceptance contract of the
// telemetry layer: the per-stage histogram sums must agree with the
// accumulated Result.Timings, because both are fed by the same span
// durations. The §4.8 pipeline (PSDUOnly: no search, fixed scale) has
// exactly one synthesis pass per packet, so agreement is exact up to
// float conversion; we assert the ±5% documented bound.
func TestTelemetryStageConsistency(t *testing.T) {
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.Mode = RealTime
	opts.GFSK = gfsk.BRConfig()
	opts.PSDUOnly = true
	opts.Telemetry = reg
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: make([]byte, 27)}
	dev := bt.Device{LAP: 0x9e8b33, UAP: 0x00}
	iterations := 5
	if testing.Short() {
		iterations = 2
	}
	var want Timings
	for i := 0; i < iterations; i++ {
		pkt.Clock = uint32(4 * i)
		air, err := pkt.AirBits(dev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Synthesize(air, 2427)
		if err != nil {
			t.Fatal(err)
		}
		want.IQGen += res.Timings.IQGen
		want.FFTQAM += res.Timings.FFTQAM
		want.FEC += res.Timings.FEC
		want.Scramble += res.Timings.Scramble
	}

	stageSums := map[string]float64{}
	stageCounts := map[string]int64{}
	var synthSum float64
	var synthCount int64
	for _, fam := range reg.Snapshot().Families {
		switch fam.Name {
		case "bluefi_core_stage_seconds":
			for _, m := range fam.Metrics {
				for _, l := range m.Labels {
					if l.Key == "stage" {
						stageSums[l.Value] += m.Sum
						stageCounts[l.Value] += m.Count
					}
				}
			}
		case "bluefi_core_synth_seconds":
			for _, m := range fam.Metrics {
				synthSum += m.Sum
				synthCount += m.Count
			}
		}
	}

	within := func(name string, got float64, want time.Duration) {
		t.Helper()
		w := want.Seconds()
		if w <= 0 {
			t.Fatalf("%s: reference duration %v not positive", name, want)
		}
		if math.Abs(got-w)/w > 0.05 {
			t.Errorf("%s: histogram sum %.6fs vs Timings %.6fs (>5%% apart)", name, got, w)
		}
	}
	within("iqgen", stageSums["iqgen"], want.IQGen)
	within("fftqam", stageSums["fftqam"], want.FFTQAM)
	within("fec", stageSums["fec"], want.FEC)
	within("scramble", stageSums["scramble"], want.Scramble)
	// One observation per packet and stage, precomp included; without
	// the search nothing is rehearsed.
	for stage, n := range stageCounts {
		want := int64(iterations)
		if stage == "rehearse" {
			want = 0
		}
		if n != want {
			t.Errorf("stage %q: %d observations, want %d", stage, n, want)
		}
	}
	if synthCount != int64(iterations) {
		t.Errorf("synth_seconds count = %d, want %d", synthCount, iterations)
	}
	// The synth span covers the stages plus glue; it can only be larger.
	if total := want.Total().Seconds(); synthSum < total*0.95 {
		t.Errorf("synth span sum %.6fs below stage total %.6fs", synthSum, total)
	}

	// Span taxonomy: the trace ring must hold the full stage hierarchy
	// with the stage spans parented under core.synth.
	parents := map[string]uint64{}
	ids := map[uint64]string{}
	for _, sp := range reg.RecentSpans() {
		parents[sp.Name] = sp.ParentID
		ids[sp.SpanID] = sp.Name
	}
	for _, stage := range []string{"core.iqgen", "core.fftqam", "fec.invert", "core.scramble"} {
		pid, ok := parents[stage]
		if !ok {
			t.Errorf("no %s span recorded", stage)
			continue
		}
		if ids[pid] != "core.synth" {
			t.Errorf("%s span parented under %q, want core.synth", stage, ids[pid])
		}
	}
}
