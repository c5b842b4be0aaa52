package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"bluefi"
	"bluefi/internal/eval"
	"bluefi/internal/fleet"
	"bluefi/internal/obs/flight"
	"bluefi/internal/obs/slo"
)

// runFleetServe runs the beacon-CDN daemon inside bluefi-eval: the
// /fleet control plane (bulk register/update/expire, stats) next to the
// telemetry endpoints, so the bluefi_fleet_* rollups are scrapeable
// while clients drive the fleet, plus the fleet's SLO burn rates on
// /debug/slo and the flight recorder on /debug/flight.
// cmd/bluefi-fleet is the standalone equivalent.
func runFleetServe(addr string, aps, workers int, flightDir string) error {
	reg := bluefi.NewTelemetry()
	f, err := fleet.New(fleet.Config{
		APs:          aps,
		ShardWorkers: workers,
		Synth:        bluefi.Options{Mode: bluefi.RealTime, Telemetry: reg},
	})
	if err != nil {
		return err
	}
	rec := flight.New(reg, 0)
	rec.Attach(reg)
	eng := slo.NewEngine(reg)
	for _, spec := range f.SLOSpecs() {
		eng.Add(spec)
	}
	eng.OnPage(func(ep slo.Episode) {
		bundle, err := rec.Dump(flightDir, reg, "slo-page:"+ep.SLO)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: flight dump: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "bluefi-eval: SLO %s paged (peak burn %.1f) — flight bundle %s\n",
			ep.SLO, ep.PeakBurn, bundle)
	})
	ctx, stopSLO := context.WithCancel(context.Background())
	defer stopSLO()
	eng.Start(ctx, time.Second)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"bluefi-eval: fleet of %d APs on http://%s/fleet/register|update|expire|stats, telemetry on /metrics (Ctrl-C to stop)\n",
		aps, ln.Addr())
	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	mux.Handle("/fleet/", fleet.Handler(f))
	mux.Handle("/debug/slo", eng.Handler())
	mux.Handle("/debug/flight/", http.StripPrefix("/debug/flight", rec.Handler(reg, flightDir)))
	return http.Serve(ln, mux)
}

// runFleetSoak runs the capacity soak, enforces the CI gates and merges
// the capacity snapshot into the benchmark JSON.
func runFleetSoak(path string, cfg eval.FleetSoakConfig) error {
	fmt.Printf("fleet soak: %d beacons, %d unique payloads, %d APs, seed %d\n",
		cfg.Beacons, cfg.UniquePayloads, cfg.APs, cfg.Seed)
	res, err := eval.FleetSoak(cfg)
	if err != nil {
		return err
	}
	fmt.Print(eval.FormatFleetSoak(res))

	if len(res.Ramp) == 0 {
		return errors.New("no capacity points recorded")
	}
	last := res.Ramp[len(res.Ramp)-1]
	if last.Failures > 0 {
		return fmt.Errorf("%d registrations failed at the final level", last.Failures)
	}
	if last.Beacons < cfg.Beacons {
		return fmt.Errorf("sustained %d beacons, want %d", last.Beacons, cfg.Beacons)
	}
	if last.P99LatencySeconds <= 0 {
		return errors.New("no p99 beacon-slot latency recorded")
	}
	if res.SteadyStateHitRate < 0.90 {
		return fmt.Errorf("steady-state cache hit rate %.4f under the 0.90 floor", res.SteadyStateHitRate)
	}
	// Sketch gates: the O(k) summaries must agree with the exact ramp
	// figures. The quantile sketch promises 1% relative error against
	// any true sample; churn-phase admissions shift the sketched p99
	// slightly off the ramp percentile, so gate at a loose 25% — it
	// catches a broken sketch, not honest drift.
	sk := res.Sketches
	if sk.SlotLatency.N == 0 {
		return errors.New("slot-latency sketch recorded no samples")
	}
	if p99 := sk.SlotLatency.P99; p99 <= 0 ||
		p99 < last.P99LatencySeconds*0.75 || p99 > last.MaxLatencySeconds*1.25 {
		return fmt.Errorf("sketched p99 %.6fs implausible against exact p99 %.6fs / max %.6fs",
			p99, last.P99LatencySeconds, last.MaxLatencySeconds)
	}
	if len(sk.HotKeys) == 0 || len(sk.HotShards) == 0 {
		return errors.New("heavy-hitter sketches empty after the soak")
	}
	return mergeBench(path, "fleetCapacity", res, false)
}
