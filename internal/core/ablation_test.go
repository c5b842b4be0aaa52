package core

import (
	"testing"

	"bluefi/internal/beacon"
	"bluefi/internal/bt"
	"bluefi/internal/gfsk"
)

// ablationBeaconAir is the beacon the ablation benches synthesize: an
// iBeacon (major 3) advertised on BLE channel 38.
func ablationBeaconAir(tb testing.TB) []byte {
	tb.Helper()
	adv := &bt.Advertisement{
		PDUType: bt.AdvNonconnInd,
		AdvA:    [6]byte{1, 2, 3, 4, 5, 6},
		Data:    beacon.IBeacon{Major: 3}.ADStructures(),
	}
	air, err := adv.AirBits(38)
	if err != nil {
		tb.Fatal(err)
	}
	return air
}

// newAblated builds a serving BLE synthesizer with the given ablation
// toggles.
func newAblated(tb testing.TB, toggles ablationToggles) *Synthesizer {
	tb.Helper()
	opts := DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	s, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	s.ablate = toggles
	return s
}

// synthesizeCandidateZero synthesizes air bits as search candidate 0
// alone, framed and scored like a returned result: the unsearched
// pipeline with a waveform.
func synthesizeCandidateZero(tb testing.TB, s *Synthesizer, air []byte, btMHz float64) *Result {
	tb.Helper()
	g := s.opts.GFSK
	g.CenterOffset = 0
	pkt, err := g.PhaseSignal(air)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := PlanForChannel(btMHz, s.opts.WiFiChannel)
	if err != nil {
		tb.Fatal(err)
	}
	sh := &searchShared{pkt: pkt, plan: plan}
	res, err := s.synthesizeCandidate(s.obsCtx, sh, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.finish(res, sh); err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestAblationTogglesChangeOutput checks that each toggle reaches the
// pipeline: the synthesized PSDU or its in-band fidelity differs from the
// serving pipeline's, and worker clones inherit the toggles.
func TestAblationTogglesChangeOutput(t *testing.T) {
	air := ablationBeaconAir(t)
	serving, err := newAblated(t, ablationToggles{}).Synthesize(air, 2426)
	if err != nil {
		t.Fatal(err)
	}
	for name, toggles := range map[string]ablationToggles{
		"noPrecomp":  {noPrecomp: true},
		"fixedScale": {fixedScale: true},
	} {
		s := newAblated(t, toggles)
		res, err := s.Synthesize(air, 2426)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.PSDU) == string(serving.PSDU) && res.PhaseRMSE == serving.PhaseRMSE {
			t.Errorf("%s: PSDU and PhaseRMSE %.4f equal the serving pipeline's", name, res.PhaseRMSE)
		}
		w, err := s.newWorker()
		if err != nil {
			t.Fatal(err)
		}
		if w.ablate != toggles {
			t.Errorf("%s: worker clone has toggles %+v", name, w.ablate)
		}
	}
}

// benchAblation synthesizes the ablation beacon with the given toggles
// and reports the returned waveform's in-band phase RMSE.
func benchAblation(b *testing.B, toggles ablationToggles) {
	s := newAblated(b, toggles)
	air := ablationBeaconAir(b)
	b.ReportAllocs()
	b.ResetTimer()
	var fidelity float64
	for i := 0; i < b.N; i++ {
		res, err := s.Synthesize(air, 2426)
		if err != nil {
			b.Fatal(err)
		}
		fidelity = res.PhaseRMSE
	}
	b.ReportMetric(fidelity, "rad-inband-RMSE")
}

// Scale-factor choice (§2.5): fixed A = 1/2 versus the per-symbol dynamic
// search the paper found "negligible benefit, significantly higher
// complexity", both under the rehearsal search.
func BenchmarkAblationScaleFixed(b *testing.B) {
	benchAblation(b, ablationToggles{fixedScale: true})
}

func BenchmarkAblationScaleDynamic(b *testing.B) { benchAblation(b, ablationToggles{}) }

// Precompensation extensions (beyond the paper): pilot and CP in-band
// corrections on/off.
func BenchmarkAblationNoPrecompensation(b *testing.B) {
	benchAblation(b, ablationToggles{noPrecomp: true})
}
