package bluefi

// Chaos × SLO: the burn-rate engine and flight recorder in the loop of
// the acceptance storm. The same seeded fault plan as
// TestChaosAcceptance drives the degradation-enabled stream, with the
// SLO engine ticking once per send over the stream's healthy-airtime
// indicator and the flight recorder attached to the registry's event
// stream. The alerting contract under test: the storm pages exactly
// once (escalation within the fast window, hysteresis holding the
// flickering storm together as one episode), the page dumps a valid
// flight bundle capturing the chaos events, and the SLO walks back to
// OK after the fault budget is spent. Runs under `make chaos` (-race).

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bluefi/internal/leaktest"
	"bluefi/internal/obs/flight"
	"bluefi/internal/obs/slo"
)

func TestChaosSLOStormReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	noLeak := leaktest.Check(t)
	reg := NewTelemetry()
	rec := flight.New(reg, 0)
	rec.Attach(reg)
	pool, err := NewPool(Options{
		Mode:      RealTime,
		Telemetry: reg,
		Faults: &FaultPlan{
			Seed:             1,
			WorkerPanicRate:  0.05,
			LatencyRate:      0.40,
			LatencyFactor:    2,
			InterferenceRate: 0.40,
			InterferenceDuty: 0.30,
			MaxInjections:    40,
		},
		Retry: RetryPolicy{MaxAttempts: 3},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := pool.NewAudioStream(AudioConfig{
		Device:     Device{LAP: 0x123456, UAP: 0x9A},
		PacketType: DM1,
		SBC:        SBCConfig{SampleRateHz: 16000, Blocks: 4, Subbands: 4, Bitpool: 31},
		Degrade:    true,
		SlotBudget: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	const sloName = "audio_healthy_airtime"
	eng := slo.NewEngine(reg)
	if !eng.Add(slo.Spec{
		Name:      sloName,
		Objective: 0.99,
		Indicator: func() (float64, float64) {
			rep := stream.Report()
			total := rep.TimeInStateSlots[0] + rep.TimeInStateSlots[1] + rep.TimeInStateSlots[2]
			return float64(rep.TimeInStateSlots[0]), float64(total)
		},
	}) {
		t.Fatal("Add rejected the airtime SLO")
	}
	dir := t.TempDir()
	var bundles []string
	eng.OnPage(func(ep slo.Episode) {
		bundle, err := rec.Dump(dir, reg, "slo-page:"+ep.SLO)
		if err != nil {
			t.Errorf("flight dump on page: %v", err)
			return
		}
		bundles = append(bundles, bundle)
	})

	// One deterministic tick per send — synthetic time, never the clock.
	phase, sends, tick := 0, 0, int64(0)
	send := func() {
		t.Helper()
		if _, err := stream.Send(chaosTone(stream, phase)); err != nil {
			t.Fatalf("send %d: non-transient error escaped the degradation layer: %v", sends, err)
		}
		phase += stream.SamplesPerSend()
		sends++
		tick++
		eng.Tick(time.Unix(tick, 0).UTC())
	}
	for sends < 400 && !pool.inj.Exhausted() {
		send()
	}
	if !pool.inj.Exhausted() {
		t.Fatalf("fault budget not spent after %d sends", sends)
	}
	stormTick := tick

	// Page within one fast window (8 ticks) of the storm.
	for i := 0; i < 8 && eng.State(sloName) != slo.Page; i++ {
		send()
	}
	if st := eng.State(sloName); st != slo.Page {
		t.Fatalf("SLO %v one fast window after the storm, want page (snapshot %+v)", st, eng.Snapshot())
	}

	// Clean sends: hysteresis must walk Page→Warn→OK.
	for i := 0; i < 250 && eng.State(sloName) != slo.OK; i++ {
		send()
	}
	if st := eng.State(sloName); st != slo.OK {
		t.Fatalf("SLO stuck at %v after recovery tail (snapshot %+v)", st, eng.Snapshot())
	}

	episodes := eng.Episodes()
	if len(episodes) != 1 {
		t.Fatalf("%d page episodes, want exactly 1: %+v", len(episodes), episodes)
	}
	ep := episodes[0]
	if ep.Open || ep.SLO != sloName || ep.StartTick > stormTick+8 || ep.EndTick <= ep.StartTick {
		t.Fatalf("episode %+v does not bracket the storm (budget spent at tick %d)", ep, stormTick)
	}
	if ep.PeakBurn < 2 {
		t.Fatalf("peak burn %.2f below the page threshold", ep.PeakBurn)
	}

	// The page dumped exactly one bundle; it must be complete and carry
	// the chaos events the recorder captured during the storm.
	if len(bundles) != 1 {
		t.Fatalf("%d flight bundles, want exactly 1", len(bundles))
	}
	var man flight.Manifest
	data, err := os.ReadFile(filepath.Join(bundles[0], "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Reason != "slo-page:"+sloName || man.Events == 0 {
		t.Fatalf("manifest %+v: want reason slo-page:%s and events", man, sloName)
	}
	for _, want := range []string{"events.json", "metrics.json", "traces.json", "goroutine.txt", "heap.pprof"} {
		found := false
		for _, f := range man.Files {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("bundle missing %s (files %v)", want, man.Files)
		}
	}
	var evs []flight.Event
	if err := json.Unmarshal(readFileT(t, filepath.Join(bundles[0], "events.json")), &evs); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, ev := range evs {
		kinds[ev.Kind] = true
	}
	if !kinds["faults.injected"] {
		t.Errorf("bundle events missing faults.injected (kinds %v)", kinds)
	}
	if !kinds["governor.transition"] {
		t.Errorf("bundle events missing governor.transition (kinds %v)", kinds)
	}
	gor := readFileT(t, filepath.Join(bundles[0], "goroutine.txt"))
	if !strings.Contains(string(gor), "goroutine") {
		t.Error("goroutine.txt is not a goroutine profile")
	}

	pool.Close()
	noLeak()
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
