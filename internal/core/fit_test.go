package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"bluefi/internal/dsp"
	"bluefi/internal/gfsk"
	"bluefi/internal/wifi"
)

// fitMargins records how far the per-scale-FFT fit sits from a different
// choice: the smallest relative gap between the best and runner-up
// residue of a symbol, and the smallest distance (in grid units) from a
// chosen point to a QAM decision boundary, in band and over every data
// subcarrier. rounding is the largest gap, in grid units, between a
// data subcarrier of FFT(A·x) and A times that of FFT(x).
type fitMargins struct {
	residueGap       float64
	inband, anyPoint float64
	rounding         float64
}

// referenceFitSymbols is the scale search with one FFT per trial scale:
// each scale's A-scaled body transformed on its own. fitSymbols must
// demap to the same coded bits from one FFT per symbol.
func referenceFitSymbols(s *Synthesizer, thetaHat []float64, nsym int, offsetHz float64, m *fitMargins) ([]byte, error) {
	nbpsc := s.mcs.Modulation.BitsPerSymbol()
	coded := make([]byte, nsym*s.mcs.NCBPS)
	body := make([]complex128, wifi.FFTSize)
	X := make([]complex128, wifi.FFTSize)
	unit := make([]complex128, wifi.FFTSize)
	best := make([]complex128, len(wifi.HTDataSubcarriers))
	inter := make([]byte, s.mcs.NCBPS)
	sinT, cosT := make([]float64, wifi.FFTSize), make([]float64, wifi.FFTSize)
	scales := []float64{scaleFactor}
	if !s.opts.PSDUOnly {
		scales = dynamicScales
	}
	inband := make([]bool, len(wifi.HTDataSubcarriers))
	for i, sub := range wifi.HTDataSubcarriers {
		inband[i] = SubcarrierWeight(sub, offsetHz) >= WeightAdjacent
	}
	for k := 0; k < nsym; k++ {
		base := k*symbolLen + wifi.ShortGI
		bestResidue, runnerUp := math.Inf(1), math.Inf(1)
		for n := range sinT {
			sinT[n], cosT[n] = math.Sincos(thetaHat[base+n])
			body[n] = complex(cosT[n], sinT[n])
		}
		s.plan.ForwardInto(unit, body)
		for _, A := range scales {
			for n := range body {
				body[n] = complex(A*cosT[n], A*sinT[n])
			}
			s.plan.ForwardInto(X, body)
			for _, sub := range wifi.HTDataSubcarriers {
				b := dsp.SubcarrierBin(sub, wifi.FFTSize)
				m.rounding = max(m.rounding, cmplx.Abs(scaleBin(A, unit[b])-X[b])/GridScale)
			}
			residue := 0.0
			for i, sub := range wifi.HTDataSubcarriers {
				if inband[i] {
					v := X[dsp.SubcarrierBin(sub, wifi.FFTSize)] / GridScale
					d := v - s.mapper.Quantize(v)
					residue += real(d)*real(d) + imag(d)*imag(d)
				}
			}
			if residue /= A * A; residue < bestResidue {
				bestResidue, runnerUp = residue, bestResidue
				for i, sub := range wifi.HTDataSubcarriers {
					best[i] = X[dsp.SubcarrierBin(sub, wifi.FFTSize)]
				}
			} else {
				runnerUp = min(runnerUp, residue)
			}
		}
		if math.IsInf(bestResidue, 1) {
			return nil, fmt.Errorf("symbol %d: no trial scale has a finite residue", k)
		}
		if len(scales) > 1 {
			m.residueGap = min(m.residueGap, (runnerUp-bestResidue)/bestResidue)
		}
		for i, x := range best {
			v := x / GridScale
			d := min(boundaryDistance(real(v)), boundaryDistance(imag(v)))
			m.anyPoint = min(m.anyPoint, d)
			if inband[i] {
				m.inband = min(m.inband, d)
			}
			q := s.mapper.Quantize(v)
			if !s.mapper.DemapInto(inter[i*nbpsc:(i+1)*nbpsc], q) {
				return nil, fmt.Errorf("demap: point (%g,%g) off grid", real(q), imag(q))
			}
		}
		s.il.DeinterleaveInto(coded[k*s.mcs.NCBPS:(k+1)*s.mcs.NCBPS], inter)
	}
	return coded, nil
}

// boundaryDistance is the distance of one 64-QAM axis value from the
// nearest decision boundary, the even levels −6…6.
func boundaryDistance(v float64) float64 {
	d := math.Inf(1)
	for b := -6.0; b <= 6; b += 2 {
		d = min(d, math.Abs(v-b))
	}
	return d
}

// TestFitSymbolsMatchesPerScaleFFT holds the one-FFT scale search to the
// per-scale-FFT reference on every symbol of 210 random packets: DM1
// packets at each BR offset the corpus draws (2416–2428 MHz under WiFi
// channel 3) and BLE advertisements at its BLE offset (2426 MHz), each
// (offset, pipeline) pair five times over RealTime, Quality and PSDUOnly,
// each packet laid out as a random search candidate and precompensated
// as the search does. A·FFT(x) and FFT(A·x) round differently for the
// serving scales, so the test logs the margins that keep the coded bits
// equal.
func TestFitSymbolsMatchesPerScaleFFT(t *testing.T) {
	offsets := []float64{2416, 2417, 2418, 2419, 2420, 2421, 2422, 2423, 2424, 2425, 2426, 2427, 2428, 2426}
	const bleOffset = 13 // index of the BLE entry
	type pipeline struct {
		name     string
		mode     Mode
		psduOnly bool
	}
	pipelines := []pipeline{{"realtime", RealTime, false}, {"quality", Quality, false}, {"psdu-only", RealTime, true}}
	synths := map[string]*Synthesizer{}
	synth := func(p pipeline, ble bool) *Synthesizer {
		key := fmt.Sprint(p.name, ble)
		if s := synths[key]; s != nil {
			return s
		}
		opts := DefaultOptions()
		opts.Mode, opts.PSDUOnly, opts.GFSK = p.mode, p.psduOnly, gfsk.BRConfig()
		if ble {
			opts.GFSK = gfsk.BLEConfig()
		}
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		synths[key] = s
		return s
	}
	n := 5 * len(offsets) * len(pipelines)
	if testing.Short() {
		n = len(offsets) * len(pipelines)
	}
	rng := rand.New(rand.NewSource(3001))
	m := fitMargins{residueGap: math.Inf(1), inband: math.Inf(1), anyPoint: math.Inf(1)}
	symbols, psduOnlyRounding := 0, 0.0
	for i := 0; i < n; i++ {
		oi, p := i%len(offsets), pipelines[i/len(offsets)%len(pipelines)]
		g := corpusGroups[0]
		if oi == bleOffset {
			g = corpusGroups[2]
		}
		s := synth(p, g.ble)
		air, _, _ := corpusPacket(t, g, rng)
		gc := s.opts.GFSK
		gc.CenterOffset = 0
		pkt, err := gc.PhaseSignal(air)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanForChannel(offsets[oi], s.opts.WiFiChannel)
		if err != nil {
			t.Fatal(err)
		}
		sh := &searchShared{pkt: pkt, plan: plan}
		k := rng.Intn(len(searchLeads) * len(searchRotations))
		theta, _, nsym := s.layoutPhase(pkt, plan.OffsetHz, searchLeads[k/len(searchRotations)], searchRotations[k%len(searchRotations)])
		target, err := s.precompensate(sh, k, theta, nsym)
		if err != nil {
			t.Fatal(err)
		}
		thetaHat, err := DesignCP(target, wifi.ShortGI)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.fitSymbols(thetaHat, nsym, plan.OffsetHz)
		if err != nil {
			t.Fatal(err)
		}
		pm := &m
		if p.psduOnly {
			// The fixed scale 1/2 is a power of two: no rounding gap at all.
			pm = &fitMargins{residueGap: math.Inf(1), inband: math.Inf(1), anyPoint: math.Inf(1)}
		}
		want, err := referenceFitSymbols(s, thetaHat, nsym, plan.OffsetHz, pm)
		if err != nil {
			t.Fatal(err)
		}
		if p.psduOnly {
			psduOnlyRounding = max(psduOnlyRounding, pm.rounding)
		}
		for sym := 0; sym < nsym; sym++ {
			lo, hi := sym*s.mcs.NCBPS, (sym+1)*s.mcs.NCBPS
			if string(got[lo:hi]) != string(want[lo:hi]) {
				t.Fatalf("packet %d (%s, %g MHz, candidate %d) symbol %d: coded bits differ from the per-scale FFT", i, p.name, offsets[oi], k, sym)
			}
		}
		symbols += nsym
	}
	if psduOnlyRounding != 0 {
		t.Errorf("PSDUOnly: A·FFT(x) differs from FFT(A·x) by %g grid units at A = 1/2", psduOnlyRounding)
	}
	t.Logf("%d packets, %d symbols; serving scales: smallest best/runner-up residue gap %.3g (relative), smallest distance to a QAM decision boundary %.3g in band and %.3g over all data subcarriers, largest rounding gap %.3g (grid units)",
		n, symbols, m.residueGap, m.inband, m.anyPoint, m.rounding)
}

// TestCountFlipsMatchesByteLoop holds the word-skipping flip count to a
// plain byte loop over random frames with a few flips, random [from, to)
// windows and random weight periods.
func TestCountFlipsMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(700)
		coded := make([]byte, n)
		for i := range coded {
			coded[i] = byte(rng.Intn(2))
		}
		reCoded := append([]byte(nil), coded...)
		for f := rng.Intn(8); f > 0 && n > 0; f-- {
			reCoded[rng.Intn(n)] ^= 1
		}
		weights := make([]float64, 1+rng.Intn(400))
		for i := range weights {
			weights[i] = []float64{WeightImportant, WeightAdjacent, 0}[rng.Intn(3)]
		}
		from := rng.Intn(n + 1)
		to := from + rng.Intn(n-from+1)
		var want, wantImp int
		for i := from; i < to; i++ {
			if coded[i] != reCoded[i] {
				want++
				if weights[i%len(weights)] >= WeightImportant {
					wantImp++
				}
			}
		}
		if got, imp := countFlips(coded, reCoded, weights, from, to); got != want || imp != wantImp {
			t.Fatalf("trial %d [%d,%d) of %d: countFlips (%d, %d), byte loop (%d, %d)", trial, from, to, n, got, imp, want, wantImp)
		}
	}
}
