package eval

import (
	"bytes"
	"strings"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/chip"
)

// The eval tests run shrunken versions of each experiment and assert the
// paper's qualitative shapes, not absolute numbers (EXPERIMENTS.md
// discusses the mapping).

func TestFig5DistanceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := DefaultFig5(chip.AR9331)
	cfg.Reports = 6
	traces, err := Fig5Distance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 9 {
		t.Fatalf("%d traces, want 9", len(traces))
	}
	// RSSI must fall with distance for each receiver that reports.
	byRecv := map[string]map[string]Trace{}
	for _, tr := range traces {
		if byRecv[tr.Receiver] == nil {
			byRecv[tr.Receiver] = map[string]Trace{}
		}
		byRecv[tr.Receiver][tr.Distance] = tr
	}
	for name, m := range byRecv {
		near, far := m["near"], m["far"]
		if len(near.Samples) == 0 {
			t.Fatalf("%s: no reports at 20 cm", name)
		}
		if len(far.Samples) > 0 && near.MeanRSSI() <= far.MeanRSSI() {
			t.Errorf("%s: near RSSI %.1f not above far %.1f", name, near.MeanRSSI(), far.MeanRSSI())
		}
	}
	// S6 reads 6–10 dB below Pixel (paper §4.2).
	gap := byRecv["Pixel"]["close"].MeanRSSI() - byRecv["S6"]["close"].MeanRSSI()
	if len(byRecv["S6"]["close"].Samples) > 0 && (gap < 4 || gap > 12) {
		t.Errorf("Pixel−S6 RSSI gap %.1f dB, want ≈6–10", gap)
	}
	t.Log("\n" + FormatTraces("Fig 5b", traces))
}

func TestFig6PowerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := DefaultFig6()
	cfg.PacketsPerLevel = 4
	points, err := Fig6TxPower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pixel's RSSI grows with transmit power (§4.3).
	var lo, hi PowerPoint
	for _, p := range points {
		if p.Receiver != "Pixel" {
			continue
		}
		if p.TxPowerDBm == 0 {
			lo = p
		}
		if p.TxPowerDBm == 20 {
			hi = p
		}
	}
	if hi.MeanRSSI <= lo.MeanRSSI {
		t.Errorf("Pixel RSSI at 20 dBm (%.1f) not above 0 dBm (%.1f)", hi.MeanRSSI, lo.MeanRSSI)
	}
	// Even at 0 dBm the signal stays well above −90 dBm at 1.5 m (§4.3).
	if lo.Received > 0 && lo.MeanRSSI < -90 {
		t.Errorf("0 dBm RSSI %.1f below −90", lo.MeanRSSI)
	}
}

func TestFig7aDedicatedShape(t *testing.T) {
	pts, err := Fig7aDedicatedBT(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d pairs", len(pts))
	}
	for _, p := range pts {
		if p.Received == 0 {
			t.Errorf("%s: dedicated Bluetooth hardware must be received", p.Pair)
		}
	}
	// S6-as-receiver reports lower RSSI than iPhone (§4.4).
	mean := func(suffix string) float64 {
		var sum float64
		n := 0
		for _, p := range pts {
			if strings.HasSuffix(p.Pair, suffix) && p.Received > 0 {
				sum += p.MeanRSSI
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	toS6, toIPhone := mean("→S6"), mean("→iPhone")
	if toS6 >= toIPhone {
		t.Errorf("S6 RSSI %.1f not below iPhone %.1f", toS6, toIPhone)
	}
}

func TestFig7bThroughputShape(t *testing.T) {
	scs, err := Fig7bThroughput(120)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 {
		t.Fatalf("%d scenarios", len(scs))
	}
	base := scs[0].Stats.Mean
	bluefi := scs[1].Stats.Mean
	drop := base - bluefi
	// §4.5: ≈1 Mb/s drop with BlueFi; all four means within a few Mb/s.
	if drop < 0.2 || drop > 3 {
		t.Errorf("BlueFi throughput drop %.2f Mb/s, want ≈1", drop)
	}
	for _, sc := range scs {
		if sc.Stats.Mean < 44 || sc.Stats.Mean > 52 {
			t.Errorf("%s mean %.1f outside the ~49 Mb/s regime", sc.Name, sc.Stats.Mean)
		}
	}
	t.Log("\n" + FormatThroughput(scs))
}

func TestFig7cBackgroundTrafficShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	traces, err := Fig7cBackgroundTraffic(8, 11)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, tr := range traces {
		got += len(tr.Samples)
	}
	// §4.5: phones still steadily receive under saturated WiFi.
	if got == 0 {
		t.Fatal("no beacons received under background traffic")
	}
}

func TestFig8ImpairmentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := DefaultFig8()
	cfg.PacketsPerStage = 4
	pts, err := Fig8Impairments(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 receivers × 6 stages.
	if len(pts) != 18 {
		t.Fatalf("%d points, want 18", len(pts))
	}
	// Per receiver: the baseline reads the strongest (impairments shed
	// in-band energy), total degradation within a few dB (§4.6: ≈2 dB).
	byRecv := map[string][]ImpairmentPoint{}
	for _, p := range pts {
		byRecv[p.Receiver] = append(byRecv[p.Receiver], p)
	}
	for name, list := range byRecv {
		base, full := list[0], list[len(list)-1]
		if base.Stage != "Baseline" || full.Stage != "+Header" {
			t.Fatalf("%s: stage order broken", name)
		}
		// The paper measures ≈2 dB cumulative on phones; this simulation
		// reads larger drops because its RSSI integrates only the in-band
		// share of a constant-power waveform (see EXPERIMENTS.md), but
		// the shape — a monotone-ish per-stage degradation — must hold.
		deg := base.MeanRSSI - full.MeanRSSI
		if deg < 0.5 || deg > 18 {
			t.Errorf("%s: cumulative degradation %.1f dB out of range", name, deg)
		}
	}
	t.Log("\n" + FormatImpairments(pts))
}

func TestFig9PERShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := DefaultFig9()
	cfg.PacketsPerChannel = 6
	rows, err := Fig9SingleSlotPER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d channels, want 10", len(rows))
	}
	// Channels near pilots must fare worse than the best channels.
	var nearPilot, farPilot []ChannelPER
	for _, r := range rows {
		if r.PilotDistMHz < 0.8 {
			nearPilot = append(nearPilot, r)
		}
		if r.PilotDistMHz > 1.5 {
			farPilot = append(farPilot, r)
		}
	}
	if len(nearPilot) == 0 || len(farPilot) == 0 {
		t.Fatalf("channel set lacks contrast: %d near, %d far", len(nearPilot), len(farPilot))
	}
	avg := func(rs []ChannelPER) float64 {
		s := 0.0
		for _, r := range rs {
			s += r.PER()
		}
		return s / float64(len(rs))
	}
	if avg(nearPilot) < avg(farPilot) {
		t.Errorf("pilot-adjacent PER %.2f below far-from-pilot PER %.2f", avg(nearPilot), avg(farPilot))
	}
	t.Log("\n" + FormatChannelPER("Fig 9", rows))
}

func TestFig10AudioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := DefaultFig10()
	cfg.Packets = 14
	multi, err := Fig10AudioPER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Sent != 14 || len(multi.PerChannel) != 3 {
		t.Fatalf("multi-slot accounting: sent=%d channels=%d", multi.Sent, len(multi.PerChannel))
	}
	cfg.Packets = 40 // short packets are cheap; give the PER estimate room
	single, err := Fig10AudioSingleSlot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §4.7 trade-off: shorter packets drastically reduce PER. In this
	// simulation the 5-slot PER sits well above the paper's 23% (the
	// discriminator receiver is a few dB short of commercial chips; see
	// EXPERIMENTS.md), but the ordering must hold and the single-slot
	// stream must actually deliver audio.
	if single.Received == 0 {
		t.Fatal("single-slot audio stream delivered nothing")
	}
	if single.PER() > multi.PER() {
		t.Fatalf("single-slot PER %.2f above 5-slot PER %.2f", single.PER(), multi.PER())
	}
	if single.GoodputKbps <= 0 || single.GoodputKbps > single.ThroughputKbps {
		t.Fatalf("throughput accounting broken: %.1f/%.1f", single.GoodputKbps, single.ThroughputKbps)
	}
	t.Log("\n" + FormatAudio(multi) + "\n" + FormatAudio(single))
}

func TestBestAudioChannels(t *testing.T) {
	best, err := BestAudioChannels(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 3 {
		t.Fatalf("%d channels", len(best))
	}
	// The best channels must keep a healthy pilot distance.
	for _, ch := range best {
		plan, err := PlanFor(ch)
		if err != nil {
			t.Fatal(err)
		}
		if plan.PilotDistanceMHz < 1.0 {
			t.Errorf("best channel %d only %.2f MHz from a pilot", ch, plan.PilotDistanceMHz)
		}
	}
}

func TestSec48TimingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := Sec48Timings(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results", len(res))
	}
	// FEC dominates quality mode (§4.8: "almost 100% of the execution
	// time is spent on the FEC decoder").
	for _, r := range res {
		if r.Mode != "quality" {
			continue
		}
		if r.Breakdown.FEC < r.Breakdown.IQGen || r.Breakdown.FEC < r.Breakdown.Scramble {
			t.Errorf("quality %s: FEC (%v) does not dominate", r.Packet, r.Breakdown.FEC)
		}
	}
	// Real-time mode is much faster.
	if sp := Speedup(res, "5-slot (DH5)"); sp < 2 {
		t.Errorf("real-time speedup %.1f×, want ≫1", sp)
	}
	t.Log("\n" + FormatTimings(res))
}

// TestSec48IterationsDiffer: each timing iteration stamps its own slot
// clock into the air bits, so the loop times distinct packets rather
// than one packet again and again.
func TestSec48IterationsDiffer(t *testing.T) {
	p := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: make([]byte, 27)}
	first, err := airAtClock(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := airAtClock(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, second) {
		t.Fatal("iterations 0 and 1 built identical air bits")
	}
}
