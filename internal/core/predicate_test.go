package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/gfsk"
)

// cleanRehearsal is a rehearsal of n bits that all agree with the given
// margin, before any mismatch is planted.
func cleanRehearsal(n int, margin float64) rehearsal {
	r := rehearsal{margins: make([]float64, n)}
	for i := range r.margins {
		r.margins[i] = margin
	}
	return r
}

// withMismatches plants mismatches at the given (ascending) bits.
func (r rehearsal) withMismatches(bits ...int) rehearsal {
	r.margins = append([]float64(nil), r.margins...)
	for _, b := range bits {
		r.mismatches = append(r.mismatches, b)
		r.margins[b] = math.Inf(1)
	}
	return r
}

func TestDecodesPredicate(t *testing.T) {
	const pad = 8 // the BR transmit pad ahead of air bit 0
	shift := func(l bt.FECLayout) bt.FECLayout {
		out := append(bt.FECLayout(nil), l...)
		for i := range out {
			out[i].Start += pad
		}
		return out
	}
	payload := make([]byte, 17)
	dm1 := shift((&bt.Packet{Type: bt.DM1, Payload: payload}).FECLayout(btrx.SyncErrorBudget))
	dh1 := shift((&bt.Packet{Type: bt.DH1, Payload: payload}).FECLayout(btrx.SyncErrorBudget))
	// Air-bit landmarks (rehearsed bit = air bit + pad).
	const ac, header, payloadStart = 0, 72, 126
	dm1Bits := payloadStart + 15*16 // 8+136+16 = 160 info bits → 16 codewords
	dh1Bits := payloadStart + 160
	at := func(air ...int) []int {
		out := make([]int, len(air))
		for i, a := range air {
			out[i] = a + pad
		}
		return out
	}
	acBudget := make([]int, btrx.SyncErrorBudget)
	for i := range acBudget {
		acBudget[i] = ac + 11*i
	}
	overBudget := append(append([]int(nil), acBudget...), ac+70)
	dm := cleanRehearsal(2*pad+dm1Bits, 0.5)
	dh := cleanRehearsal(2*pad+dh1Bits, 0.5)

	cases := []struct {
		name   string
		r      rehearsal
		layout bt.FECLayout
		want   bool
	}{
		{"dm1 clean", dm, dm1, true},
		{"access code at budget", dm.withMismatches(at(acBudget...)...), dm1, true},
		{"access code over budget", dm.withMismatches(at(overBudget...)...), dm1, false},
		{"header triple 1 flip", dm.withMismatches(at(header+3, header+7)...), dm1, true},
		{"header triple 2 flips", dm.withMismatches(at(header+3, header+4)...), dm1, false},
		{"dm block 1 flip each", dm.withMismatches(at(payloadStart+14, payloadStart+15, payloadStart+229)...), dm1, true},
		{"dm block 2 flips", dm.withMismatches(at(payloadStart+15, payloadStart+29)...), dm1, false},
		{"dm margins ignored", cleanRehearsal(2*pad+dm1Bits, 0.01), dm1, true},
		{"dh payload flip", dh.withMismatches(at(payloadStart + 40)...), dh1, false},
		{"dh header flip", dh.withMismatches(at(header)...), dh1, true},
		{"dh payload thin margin", cleanRehearsal(2*pad+dh1Bits, searchCleanMargin), dh1, false},
		{"pad bits ignored", dm.withMismatches(0, 3, pad+dm1Bits, pad+dm1Bits+5), dm1, true},
		{"nothing rehearsed", rehearsal{}, dm1, false},
		{"nil clean above margin", cleanRehearsal(100, math.Nextafter(searchCleanMargin, 1)), nil, true},
		{"nil margin at threshold", cleanRehearsal(100, searchCleanMargin), nil, false},
		{"nil one mismatch", cleanRehearsal(100, 0.5).withMismatches(50), nil, false},
		{"nil pad mismatch counts", cleanRehearsal(100, 0.5).withMismatches(0), nil, false},
	}
	for _, tc := range cases {
		if got := decodes(tc.r, tc.layout); got != tc.want {
			t.Errorf("%s: decodes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// audioChannels are the Bluetooth channels with the most pilot clearance
// inside WiFi channel 3 — where the audio path sends its DM1 segments.
var audioChannels = []int{15, 16, 24, 25}

// TestPredicateAgreesWithReceiver scores the predicate against the
// receiver it predicts: every search candidate of seeded DM1 segments is
// rehearsed, framed and received noise-free by btrx.ReceiveBR. The FEC
// predicate must beat the raw "at most 4 mismatches" rule it replaced on
// both precision and recall. The raw rule predicts few decodes, so its
// precision is noisy on small samples: the comparison runs over 720
// candidates and is skipped in short mode.
func TestPredicateAgreesWithReceiver(t *testing.T) {
	if testing.Short() {
		t.Skip("720 rehearsed and received candidates")
	}
	const segments = 60
	opts := DefaultOptions()
	opts.Mode = RealTime
	opts.GFSK = gfsk.BRConfig()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	dev := bt.Device{LAP: 0x2A96EF, UAP: 0x5D}
	type score struct{ tp, fp, fn int }
	var pred, raw score
	tally := func(sc *score, predicted, received bool) {
		switch {
		case predicted && received:
			sc.tp++
		case predicted:
			sc.fp++
		case received:
			sc.fn++
		}
	}
	for seg := 0; seg < segments; seg++ {
		payload := make([]byte, 17)
		rng.Read(payload)
		pkt := &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: payload, Clock: uint32(rng.Intn(1 << 27)), SEQN: byte(seg & 1)}
		air, err := pkt.AirBits(dev)
		if err != nil {
			t.Fatal(err)
		}
		layout := pkt.FECLayout(btrx.SyncErrorBudget)
		for i := range layout {
			layout[i].Start += opts.GFSK.PadBits
		}
		phase, err := opts.GFSK.PhaseSignal(air)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanForChannel(bt.ChannelMHz(audioChannels[rng.Intn(len(audioChannels))]), opts.WiFiChannel)
		if err != nil {
			t.Fatal(err)
		}
		sh := &searchShared{pkt: phase, plan: plan}
		for k := 0; k < len(searchLeads)*len(searchRotations); k++ {
			res, err := s.synthesizeCandidate(context.Background(), sh, k)
			if err != nil {
				t.Fatal(err)
			}
			r := s.rehearse(context.Background(), sh, k, res)
			if err := s.finish(res, sh); err != nil {
				t.Fatal(err)
			}
			rcv, err := btrx.NewReceiver(btrx.Profile{Name: "clean"}, res.Plan.OffsetHz, dev)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := rcv.ReceiveBR(res.Waveform, pkt.Clock)
			if err != nil {
				t.Fatal(err)
			}
			received := rep.Detected && rep.Result.OK
			tally(&pred, decodes(r, layout), received)
			tally(&raw, len(r.mismatches) <= 4, received)
		}
	}
	precision := func(sc score) float64 { return float64(sc.tp) / float64(sc.tp+sc.fp) }
	recall := func(sc score) float64 { return float64(sc.tp) / float64(sc.tp+sc.fn) }
	t.Logf("predicate TP %d FP %d FN %d (precision %.3f recall %.3f); <=4 TP %d FP %d FN %d (precision %.3f recall %.3f)",
		pred.tp, pred.fp, pred.fn, precision(pred), recall(pred), raw.tp, raw.fp, raw.fn, precision(raw), recall(raw))
	if !(precision(pred) > precision(raw)) || !(recall(pred) > recall(raw)) {
		t.Errorf("FEC predicate does not beat the <=4 rule on both precision and recall")
	}
}
