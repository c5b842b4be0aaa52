package main

// SLO replay (-slo): drive the chaos storm through the
// degradation-enabled audio pipeline with the burn-rate engine ticking
// once per send, and gate on the alerting contract: the storm must
// page exactly once (fast window catches it, hysteresis keeps it one
// episode), the page must dump a valid flight bundle, and the SLO must
// walk back to OK once the fault budget is spent. The episode summary
// and the stream's degradation report (frames shipped vs dropped, slots
// spent in each health state, whether it recovered to Healthy) are
// appended under "sloEpisodes" in the BENCH_eval.json snapshot, so
// alerting and degradation behavior diff across changes the same way
// ns/op does.
//
// `make slo-gate` runs this in CI; on failure the flight bundle is
// uploaded as the debugging artifact.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"bluefi"
	"bluefi/internal/obs/flight"
	"bluefi/internal/obs/slo"
)

// stormPlan is the chaos storm the replay drives: worker panics, 2×
// synthesis latency and 30%-duty interference at once, from a fixed
// seed — a reproducible experiment, not a dice roll.
var stormPlan = bluefi.FaultPlan{Seed: 1, WorkerPanicRate: 0.05, LatencyRate: 0.40, LatencyFactor: 2,
	InterferenceRate: 0.40, InterferenceDuty: 0.30, MaxInjections: 40}

// sloGateSLO is the objective the replay gates on: stream airtime
// spent Healthy. The storm's governor transitions make its error rate
// spike deterministically, unlike frame drops which depend on how far
// the governor escalates.
const sloGateSLO = "audio_healthy_airtime"

// audioSLOSpecs declares the audio pipeline's SLOs over one stream's
// cumulative degradation accounting. Shared by -serve (wall-clock
// ticks) and -slo (one tick per send).
func audioSLOSpecs(stream *bluefi.AudioStream) []slo.Spec {
	return []slo.Spec{
		{
			Name:        "audio_frame_delivery",
			Description: "99% of encoded audio frames ship (shed frames burn the budget).",
			Objective:   0.99,
			Indicator: func() (float64, float64) {
				rep := stream.Report()
				return float64(rep.Shipped), float64(rep.Shipped + rep.Dropped)
			},
		},
		{
			Name:        sloGateSLO,
			Description: "99% of stream airtime (625 µs slots) is spent in the Healthy state.",
			Objective:   0.99,
			Indicator: func() (float64, float64) {
				rep := stream.Report()
				total := rep.TimeInStateSlots[0] + rep.TimeInStateSlots[1] + rep.TimeInStateSlots[2]
				return float64(rep.TimeInStateSlots[0]), float64(total)
			},
		},
	}
}

// sloReport is the JSON row appended to the snapshot.
type sloReport struct {
	Scenario   string        `json:"scenario"`
	Seed       int64         `json:"seed"`
	Ticks      int64         `json:"ticks"`
	StormTicks int64         `json:"stormTicks"`
	Pages      int           `json:"pages"`
	FinalState string        `json:"finalState"`
	Episodes   []slo.Episode `json:"episodes"`
	Bundle     string        `json:"bundle"`
	// The stream's degradation through the replay.
	Injected  int64                    `json:"injectedFaults"`
	ShipFrac  float64                  `json:"shippedFraction"`
	Recovered bool                     `json:"recoveredToHealthy"`
	Stream    bluefi.DegradationReport `json:"stream"`
}

// runSLO replays the storm with the engine in the loop and returns the
// episode and degradation summary.
func runSLO(flightDir string) (*sloReport, error) {
	plan := stormPlan
	reg := bluefi.NewTelemetry()
	rec := flight.New(reg, 0)
	rec.Attach(reg)

	pool, err := bluefi.NewPool(bluefi.Options{
		Mode:      bluefi.RealTime,
		Telemetry: reg,
		Faults:    &plan,
		Retry:     bluefi.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond},
	}, 2)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	stream, err := pool.NewAudioStream(bluefi.AudioConfig{
		Device:     bluefi.Device{LAP: 0xb10ef1, UAP: 0x42},
		PacketType: bluefi.DM1,
		SBC:        bluefi.SBCConfig{SampleRateHz: 16000, Blocks: 4, Subbands: 4, Bitpool: 31},
		Degrade:    &bluefi.DegradePolicy{},
		SlotBudget: time.Minute,
	})
	if err != nil {
		return nil, err
	}

	eng := slo.NewEngine(reg)
	for _, spec := range audioSLOSpecs(stream) {
		if spec.Name == sloGateSLO {
			eng.Add(spec)
		}
	}
	var bundles []string
	eng.OnPage(func(ep slo.Episode) {
		bundle, err := rec.Dump(flightDir, reg, "slo-page:"+ep.SLO)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: flight dump: %v\n", err)
			return
		}
		bundles = append(bundles, bundle)
		fmt.Printf("slo: %s paged at tick %d — flight bundle %s\n", ep.SLO, ep.StartTick, bundle)
	})

	// One engine tick per send: deterministic synthetic time, never the
	// wall clock, so the state trajectory replays identically.
	tick := int64(0)
	send := func(phase int) error {
		pcm := make([][]float64, stream.Channels())
		for ch := range pcm {
			pcm[ch] = tonePCM(stream.SamplesPerSend(), phase)
		}
		if _, err := stream.Send(pcm); err != nil {
			return err
		}
		tick++
		eng.Tick(time.Unix(tick, 0).UTC())
		return nil
	}

	// Storm phase: send until the fault budget is spent (bounded).
	done := 0
	for ; done < 400 && pool.InjectedFaults() < int64(plan.MaxInjections); done++ {
		if err := send(done * stream.SamplesPerSend()); err != nil {
			return nil, fmt.Errorf("storm send %d: %w", done, err)
		}
	}
	if pool.InjectedFaults() < int64(plan.MaxInjections) {
		return nil, fmt.Errorf("fault budget not spent after %d sends (%d injected)", done, pool.InjectedFaults())
	}
	stormTicks := tick

	// The page must land within one fast window of the storm: the burn
	// windows trail the governor's transitions, so grant the default
	// fast window (8 ticks) of grace past budget exhaustion.
	const fastWindow = 8
	for i := 0; i < fastWindow && eng.State(sloGateSLO) != slo.Page; i++ {
		if err := send(done * stream.SamplesPerSend()); err != nil {
			return nil, fmt.Errorf("post-storm send %d: %w", done, err)
		}
		done++
	}
	if eng.State(sloGateSLO) != slo.Page {
		return nil, fmt.Errorf("%s is %v one fast window after the storm, want page (snapshot %+v)",
			sloGateSLO, eng.State(sloGateSLO), eng.Snapshot())
	}

	// Recovery phase: clean sends until the SLO walks Page→Warn→OK.
	for i := 0; i < 250 && eng.State(sloGateSLO) != slo.OK; i++ {
		if err := send(done * stream.SamplesPerSend()); err != nil {
			return nil, fmt.Errorf("recovery send %d: %w", done, err)
		}
		done++
	}
	if st := eng.State(sloGateSLO); st != slo.OK {
		return nil, fmt.Errorf("%s stuck at %v after recovery tail (burns: %+v)", sloGateSLO, st, eng.Snapshot())
	}

	episodes := eng.Episodes()
	if len(episodes) != 1 {
		return nil, fmt.Errorf("%d page episodes, want exactly 1 (hysteresis must hold the storm together): %+v",
			len(episodes), episodes)
	}
	ep := episodes[0]
	if ep.Open || ep.StartTick > stormTicks+fastWindow || ep.EndTick <= ep.StartTick {
		return nil, fmt.Errorf("episode %+v does not bracket the storm (budget spent at tick %d)", ep, stormTicks)
	}
	if len(bundles) != 1 {
		return nil, fmt.Errorf("%d flight bundles dumped, want exactly 1", len(bundles))
	}
	var man flight.Manifest
	data, err := os.ReadFile(filepath.Join(bundles[0], "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("flight bundle invalid: %w", err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("flight manifest invalid: %w", err)
	}
	if man.Reason != "slo-page:"+sloGateSLO || man.Events == 0 {
		return nil, fmt.Errorf("flight manifest %+v: want reason slo-page:%s and recorded events", man, sloGateSLO)
	}

	srep := stream.Report()
	frac := 1.0
	if total := srep.Shipped + srep.Dropped; total > 0 {
		frac = float64(srep.Shipped) / float64(total)
	}
	rep := &sloReport{
		Scenario:   "storm",
		Seed:       plan.Seed,
		Ticks:      tick,
		StormTicks: stormTicks,
		Pages:      len(episodes),
		FinalState: eng.State(sloGateSLO).String(),
		Episodes:   episodes,
		Bundle:     bundles[0],
		Injected:   pool.InjectedFaults(),
		ShipFrac:   math.Round(frac*1000) / 1000,
		Recovered:  stream.Health() == bluefi.HealthHealthy,
		Stream:     srep,
	}
	fmt.Printf("slo/storm: paged tick %d, recovered tick %d (peak burn %.1f), OK after %d ticks total\n",
		ep.StartTick, ep.EndTick, ep.PeakBurn, tick)
	fmt.Printf("  %d injected faults, shipped %.1f%% (%d/%d), stream %s, recovered=%v\n",
		rep.Injected, 100*frac, srep.Shipped, srep.Shipped+srep.Dropped, stream.Health(), rep.Recovered)
	fmt.Printf("  time in state (slots): healthy=%d degraded=%d shedding=%d, %d transitions\n",
		srep.TimeInStateSlots[0], srep.TimeInStateSlots[1], srep.TimeInStateSlots[2], srep.Transitions)
	return rep, nil
}
