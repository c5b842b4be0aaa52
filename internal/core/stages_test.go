package core

import (
	"math"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/channel"
	"bluefi/internal/dsp"
	"bluefi/internal/gfsk"
	"bluefi/internal/wifi"
)

// TestStageByStageReception rebuilds the waveform with impairments
// applied cumulatively (the Fig. 8 decomposition) and checks that the
// early stages decode cleanly while reporting the rest.
func TestStageByStageReception(t *testing.T) {
	opts := DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	air := beaconAirBits(t, 38)
	plan, _ := PlanForChannel(2426, 3)
	theta, lead, nsym, err := s.buildTargetPhase(air, plan.OffsetHz)
	if err != nil {
		t.Fatal(err)
	}
	thetaHat, _ := DesignCP(theta, wifi.ShortGI)

	stageB := dsp.PhaseToIQ(thetaHat, 1)

	// Stage C: quantize data bins, keep FFT values on pilots/nulls.
	// forcePilots: 1 = pilots only, 2 = nulls only, 3 = both.
	mkWave := func(forcePilots int) []complex128 {
		syms := make([][]complex128, nsym)
		body := make([]complex128, 64)
		for k := 0; k < nsym; k++ {
			base := k*symbolLen + wifi.ShortGI
			for n := 0; n < 64; n++ {
				th := thetaHat[base+n]
				body[n] = complex(0.5*math.Cos(th), 0.5*math.Sin(th))
			}
			X := s.plan.Forward(body)
			out := make([]complex128, 64)
			for b := range X {
				out[b] = X[b] / GridScale
			}
			for _, sub := range wifi.HTDataSubcarriers {
				b := dsp.SubcarrierBin(sub, 64)
				out[b] = s.mapper.Quantize(out[b])
			}
			if forcePilots&2 != 0 {
				// Zero nulls: everything that is neither data nor pilot.
				keep := map[int]bool{}
				for _, sub := range wifi.HTDataSubcarriers {
					keep[dsp.SubcarrierBin(sub, 64)] = true
				}
				for _, sub := range wifi.PilotSubcarriers {
					keep[dsp.SubcarrierBin(sub, 64)] = true
				}
				for b := range out {
					if !keep[b] {
						out[b] = 0
					}
				}
			}
			if forcePilots&1 != 0 {
				p := float64(wifi.PilotPolarity[(3+k)%127])
				pattern := []float64{1, 1, 1, -1}
				for i, sub := range wifi.PilotSubcarriers {
					out[dsp.SubcarrierBin(sub, 64)] = complex(p*pattern[i]*wifi.PilotAmplitude(wifi.QAM64), 0)
				}
			}
			syms[k] = out
		}
		mod, _ := wifi.NewOFDMModulator(wifi.ShortGI, true)
		w, _ := mod.Modulate(syms)
		return w
	}
	stageC := mkWave(0)
	stageP := mkWave(1)
	stageN := mkWave(2)
	stageD := mkWave(3)

	res, err := s.Synthesize(air, 2426)
	if err != nil {
		t.Fatal(err)
	}
	stageE := res.Waveform

	ideal, _ := func() ([]complex128, error) {
		g := opts.GFSK
		g.CenterOffset = plan.OffsetHz
		return g.Modulate(air)
	}()

	check := func(name string, wave []complex128, start int) {
		ch := channel.Default(18, 1.5)
		ch.NoiseFloorDBm = -150
		rx, err := ch.Apply(wave)
		if err != nil {
			t.Fatal(err)
		}
		rcv, _ := btrx.NewReceiver(btrx.Sniffer, plan.OffsetHz, bt.Device{})
		rep, err := rcv.ReceiveBLE(rx, 38)
		if err != nil {
			t.Fatal(err)
		}
		seg := wave[start : start+len(ideal)]

		// Known-alignment BER with receiver-equivalent processing:
		// filter, limiter, full-bit integration.
		bb := make([]complex128, len(wave))
		copy(bb, wave)
		dsp.Mix(bb, -plan.OffsetHz, 20e6)
		fir, _ := dsp.LowpassFIR(600e3, 20e6, 101)
		bb = fir.Apply(bb)
		freq := dsp.Discriminate(bb)
		limit := 2 * 3.141592653589793 * 600e3 / 20e6 * 1.2
		for i, f := range freq {
			if f > limit {
				freq[i] = limit
			} else if f < -limit {
				freq[i] = -limit
			}
		}
		pad := opts.GFSK.PadBits * 20
		errPos := []int{}
		for i, b := range air {
			base := start + pad + i*20
			var acc float64
			for k := 0; k < 20; k++ {
				acc += freq[base+k]
			}
			got := byte(0)
			if acc > 0 {
				got = 1
			}
			if got != b&1 {
				errPos = append(errPos, i)
			}
		}
		t.Logf("%-12s syncErr=%2d detected=%v ok=%v start=%d(want %d) rawRMSE=%.3f alignedBER=%d/%d %v",
			name, rep.SyncErrors, rep.Detected, rep.Result.OK, rep.SampleStart, start+opts.GFSK.PadBits*20,
			dsp.PhaseRMSE(ideal, seg), len(errPos), len(air), head(errPos, 12))
		switch name {
		case "baseline", "+CP":
			// §2.4: the CP-designed waveform alone must be receivable —
			// the paper's USRP simulations showed the same.
			if !rep.Detected || !rep.Result.OK {
				t.Errorf("%s: must decode cleanly", name)
			}
			if len(errPos) != 0 {
				t.Errorf("%s: %d aligned bit errors, want 0", name, len(errPos))
			}
		case "+FEC":
			// The full synthesis pipeline (this stage runs Synthesize
			// with all default compensations) must decode end to end.
			if !rep.Detected || !rep.Result.OK {
				t.Errorf("%s: the full pipeline must decode", name)
			}
		}
	}
	check("baseline", ideal, 0)
	check("+CP", stageB, lead)
	check("+QAM", stageC, lead)
	check("+Pilot", stageP, lead)
	check("+Null", stageN, lead)
	check("+PilotNull", stageD, lead)
	check("+FEC", stageE, res.DataStart+res.GFSKStart)
}

func head(v []int, n int) []int {
	if len(v) > n {
		return v[:n]
	}
	return v
}
