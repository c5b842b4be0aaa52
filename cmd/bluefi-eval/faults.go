package main

// Chaos scenarios (-faults): run the degradation-enabled audio pipeline
// under a named deterministic fault plan and report how gracefully it
// degraded — frames shipped vs dropped, slots spent in each health
// state, and whether the stream recovered once the fault budget was
// spent. The report prints to stdout and is appended under the
// "faultScenarios" key of the BENCH_eval.json snapshot (-bench-out), so
// successive changes diff degradation behavior the same way they diff
// ns/op.

import (
	"fmt"
	"math"
	"time"

	"bluefi"
)

// faultScenarios are the named plans. All share a fixed seed: a
// scenario is a reproducible experiment, not a dice roll.
var faultScenarios = map[string]bluefi.FaultPlan{
	// panics: workers crash mid-job; the pool respawns them and the
	// retry policy re-runs the lost jobs.
	"panics": {Seed: 1, WorkerPanicRate: 0.10, MaxInjections: 30},
	// latency: job and segment synthesis times inflate 2×, blowing
	// real-time slot budgets.
	"latency": {Seed: 1, LatencyRate: 0.40, LatencyFactor: 2, MaxInjections: 30},
	// interference: 30%-duty WiFi bursts dirty the stream's channel.
	"interference": {Seed: 1, InterferenceRate: 0.40, InterferenceDuty: 0.30, MaxInjections: 30},
	// storm: the ISSUE acceptance mix — panics + 2× latency + 30%-duty
	// interference at once.
	"storm": {Seed: 1, WorkerPanicRate: 0.05, LatencyRate: 0.40, LatencyFactor: 2,
		InterferenceRate: 0.40, InterferenceDuty: 0.30, MaxInjections: 40},
}

// degradationReport is the JSON row appended to the snapshot.
type degradationReport struct {
	Scenario   string                   `json:"scenario"`
	Seed       int64                    `json:"seed"`
	Sends      int                      `json:"sends"`
	Injected   int64                    `json:"injectedFaults"`
	ShipFrac   float64                  `json:"shippedFraction"`
	Recovered  bool                     `json:"recoveredToHealthy"`
	FinalState string                   `json:"finalState"`
	Stream     bluefi.DegradationReport `json:"stream"`
}

// runFaults drives one scenario for `sends` media packets (plus a
// bounded recovery tail) and appends the report to the snapshot at
// path.
func runFaults(scenario, path string, sends int) error {
	plan, ok := faultScenarios[scenario]
	if !ok {
		return fmt.Errorf("unknown scenario %q (have: panics, latency, interference, storm)", scenario)
	}
	if sends <= 0 {
		sends = 120
	}
	pool, err := bluefi.NewPool(bluefi.Options{
		Mode:   bluefi.RealTime,
		Faults: &plan,
		Retry:  bluefi.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond},
	}, 2)
	if err != nil {
		return err
	}
	defer pool.Close()
	// The SlotBudget sits far above real synthesis time, so deadline
	// misses in the report are the injector's doing — the scenario
	// measures policy behavior, not this machine's speed.
	stream, err := pool.NewAudioStream(bluefi.AudioConfig{
		Device:     bluefi.Device{LAP: 0xb10ef1, UAP: 0x42},
		PacketType: bluefi.DM1,
		SBC:        bluefi.SBCConfig{SampleRateHz: 16000, Blocks: 4, Subbands: 4, Bitpool: 31},
		Degrade:    &bluefi.DegradePolicy{},
		SlotBudget: time.Minute,
	})
	if err != nil {
		return err
	}
	send := func(phase int) error {
		pcm := make([][]float64, stream.Channels())
		for ch := range pcm {
			pcm[ch] = tonePCM(stream.SamplesPerSend(), phase)
		}
		_, err := stream.Send(pcm)
		return err
	}
	done := 0
	for ; done < sends; done++ {
		if err := send(done * stream.SamplesPerSend()); err != nil {
			return fmt.Errorf("send %d: %w", done, err)
		}
	}
	// Recovery tail: clean sends until Healthy, bounded at 40.
	recovered := stream.Health() == bluefi.HealthHealthy
	for i := 0; i < 40 && !recovered; i++ {
		if err := send(done * stream.SamplesPerSend()); err != nil {
			return fmt.Errorf("recovery send %d: %w", done, err)
		}
		done++
		recovered = stream.Health() == bluefi.HealthHealthy
	}

	srep := stream.Report()
	total := srep.Shipped + srep.Dropped
	frac := 1.0
	if total > 0 {
		frac = float64(srep.Shipped) / float64(total)
	}
	rep := degradationReport{
		Scenario:   scenario,
		Seed:       plan.Seed,
		Sends:      done,
		Injected:   pool.InjectedFaults(),
		ShipFrac:   math.Round(frac*1000) / 1000,
		Recovered:  recovered,
		FinalState: stream.Health().String(),
		Stream:     srep,
	}
	fmt.Printf("faults/%s: %d sends, %d injected faults, shipped %.1f%% (%d/%d), final state %s, recovered=%v\n",
		scenario, rep.Sends, rep.Injected, 100*frac, srep.Shipped, total, rep.FinalState, recovered)
	fmt.Printf("  time in state (slots): healthy=%d degraded=%d shedding=%d, %d transitions\n",
		srep.TimeInStateSlots[0], srep.TimeInStateSlots[1], srep.TimeInStateSlots[2], srep.Transitions)
	return mergeBench(path, "faultScenarios", rep, true)
}
