// Command bluefi-eval regenerates every figure and table of the paper's
// evaluation section (§4) on the simulated substrate and prints the text
// equivalent of each plot. EXPERIMENTS.md records the paper-vs-measured
// comparison these outputs feed.
//
//	bluefi-eval -fig all
//	bluefi-eval -fig 9 -n 40
//	bluefi-eval -bench-json            # BENCH_eval.json regression snapshot
//	bluefi-eval -serve :8399           # live /metrics + /health over a synthesis workload
//	bluefi-eval -obs-overhead          # telemetry overhead gate (CI)
//	bluefi-eval -alloc-gate            # §4.8 allocs/op and bytes/op regression gate vs BENCH_eval.json (CI)
//	bluefi-eval -faults storm          # chaos scenario → degradation report
//	bluefi-eval -slo                   # storm replay through the SLO burn-rate engine (CI gate)
//	bluefi-eval -e2e                   # TX→RX conformance matrix → scanner PDR snapshot
//	bluefi-eval -fleet :8400           # beacon-CDN control plane + telemetry
//	bluefi-eval -fleet-soak            # capacity soak + cache-hit-rate gate (CI)
//	bluefi-eval -a2dp-soak             # multi-session A2DP capacity knee + fault storm (CI)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"bluefi/internal/chip"
	"bluefi/internal/eval"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5b, 5c, 6, 7a, 7b, 7c, 8, 9, 10, timing, all")
	n := flag.Int("n", 0, "override per-point sample count (0 = default)")
	benchJSON := flag.Bool("bench-json", false, "run the benchmark suite and write a BENCH_*.json snapshot instead of figures")
	benchOut := flag.String("bench-out", "BENCH_eval.json", "output path for -bench-json")
	serve := flag.String("serve", "", "serve /metrics, /metrics.json and /traces on this address (e.g. :8399) over a continuous synthesis workload, instead of figures")
	serveWorkers := flag.Int("serve-workers", 2, "pool workers for the -serve workload")
	obsOverhead := flag.Bool("obs-overhead", false, "measure telemetry overhead on BenchmarkSynthesize and fail if attached/disabled ns/op exceeds 1.05")
	faultsScenario := flag.String("faults", "", "run a chaos scenario (panics, latency, interference, storm) and append its degradation report to -bench-out")
	sloReplay := flag.Bool("slo", false, "replay the storm scenario through the SLO burn-rate engine, gate on exactly one page episode + recovery + a valid flight bundle, and append the episode summary to -bench-out")
	flightDir := flag.String("flight-dir", "flight", "directory for flight-recorder bundles (-slo, -serve, -fleet)")
	e2e := flag.Bool("e2e", false, "run the loopback conformance matrix (BLE/BR/EDR through channel and scanner) and append the scanner PDR snapshot to -bench-out")
	allocGate := flag.Bool("alloc-gate", false, "re-measure §4.8 real-time allocs/op and quality bytes/op and fail if either exceeds the committed -bench-out snapshot by more than 5%")
	fleetAddr := flag.String("fleet", "", "serve the beacon-CDN fleet control plane (/fleet/register|update|expire|stats) plus telemetry on this address (e.g. :8400), instead of figures")
	fleetSoak := flag.Bool("fleet-soak", false, "run the fleet capacity soak, enforce the ≥90% steady-state cache hit rate gate, and append the capacity curve to -bench-out")
	fleetAPs := flag.Int("fleet-aps", 64, "simulated APs (one shard each) for -fleet / -fleet-soak")
	fleetBeacons := flag.Int("fleet-beacons", 100000, "registrations for -fleet-soak")
	fleetUnique := flag.Int("fleet-unique", 64, "distinct advertisement payloads for -fleet-soak")
	fleetSeed := flag.Int64("fleet-seed", 8, "workload seed for -fleet-soak")
	a2dpSoak := flag.Bool("a2dp-soak", false, "run the multi-session A2DP capacity soak: ramp sessions to the admission knee, gate on delivery below it and through a fault storm, and append the capacity curve to -bench-out")
	a2dpMinSessions := flag.Int("a2dp-min-sessions", 3, "minimum sessions the -a2dp-soak knee (and the storm's at-floor count) must sustain")
	flag.Parse()

	if *a2dpSoak {
		if err := runA2DPSoak(*benchOut, *flightDir, *a2dpMinSessions); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: a2dp-soak: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *fleetSoak {
		cfg := eval.DefaultFleetSoak()
		cfg.APs = *fleetAPs
		cfg.Beacons = *fleetBeacons
		cfg.UniquePayloads = *fleetUnique
		cfg.Seed = *fleetSeed
		if err := runFleetSoak(*benchOut, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: fleet-soak: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *fleetAddr != "" {
		if err := runFleetServe(*fleetAddr, *fleetAPs, *serveWorkers, *flightDir); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: fleet: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *allocGate {
		if err := runAllocGate(*benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: alloc-gate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *e2e {
		if err := runE2E(*benchOut, *n); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: e2e: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *faultsScenario != "" {
		if err := runFaults(*faultsScenario, *benchOut, *n); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: faults: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *sloReplay {
		if err := runSLO(*benchOut, *flightDir); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: slo: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *serve != "" {
		if err := runServe(*serve, *serveWorkers, *flightDir); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *obsOverhead {
		if err := runObsOverhead(); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: obs-overhead: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchJSON {
		if err := runBenchJSON(*benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: bench-json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	run := func(name string, f func() error) {
		if !all && !want[name] {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("5b", func() error {
		cfg := eval.DefaultFig5(chip.AR9331)
		if *n > 0 {
			cfg.Reports = *n
		}
		traces, err := eval.Fig5Distance(cfg)
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatTraces("Fig 5b — RSSI vs distance (AR9331, 18 dBm)", traces))
		return nil
	})
	run("5c", func() error {
		cfg := eval.DefaultFig5(chip.RTL8811AU)
		if *n > 0 {
			cfg.Reports = *n
		}
		traces, err := eval.Fig5Distance(cfg)
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatTraces("Fig 5c — RSSI vs distance (RTL8811AU)", traces))
		return nil
	})
	run("6", func() error {
		cfg := eval.DefaultFig6()
		if *n > 0 {
			cfg.PacketsPerLevel = *n
		}
		points, err := eval.Fig6TxPower(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fig 6 — RSSI vs transmit power (1.5 m)")
		last := ""
		for _, p := range points {
			if p.Receiver != last {
				fmt.Printf("  %s:\n", p.Receiver)
				last = p.Receiver
			}
			fmt.Printf("    %4.0f dBm: meanRSSI=%7.1f dBm received=%3.0f%%\n",
				p.TxPowerDBm, p.MeanRSSI, 100*p.Received)
		}
		return nil
	})
	run("7a", func() error {
		packets := 10
		if *n > 0 {
			packets = *n
		}
		pts, err := eval.Fig7aDedicatedBT(packets, 7)
		if err != nil {
			return err
		}
		fmt.Println("Fig 7a — dedicated Bluetooth hardware (8 dBm, 1.5 m)")
		for _, p := range pts {
			fmt.Printf("  %-14s meanRSSI=%7.1f dBm received=%3.0f%%\n", p.Pair, p.MeanRSSI, 100*p.Received)
		}
		return nil
	})
	run("7b", func() error {
		scs, err := eval.Fig7bThroughput(120)
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatThroughput(scs))
		return nil
	})
	run("7c", func() error {
		reports := 12
		if *n > 0 {
			reports = *n
		}
		traces, err := eval.Fig7cBackgroundTraffic(reports, 11)
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatTraces("Fig 7c — RSSI under saturated background WiFi", traces))
		return nil
	})
	run("8", func() error {
		cfg := eval.DefaultFig8()
		if *n > 0 {
			cfg.PacketsPerStage = *n
		}
		pts, err := eval.Fig8Impairments(cfg)
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatImpairments(pts))
		return nil
	})
	run("9", func() error {
		cfg := eval.DefaultFig9()
		if *n > 0 {
			cfg.PacketsPerChannel = *n
		}
		rows, err := eval.Fig9SingleSlotPER(cfg)
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatChannelPER("Fig 9 — PER with single-slot (DM1) packets", rows))
		return nil
	})
	run("10", func() error {
		cfg := eval.DefaultFig10()
		if *n > 0 {
			cfg.Packets = *n
		}
		multi, err := eval.Fig10AudioPER(cfg)
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatAudio(multi))
		single, err := eval.Fig10AudioSingleSlot(cfg)
		if err != nil {
			return err
		}
		fmt.Println("  (single-slot comparison, §4.7's short-packet trade-off:)")
		fmt.Print(eval.FormatAudio(single))
		return nil
	})
	run("timing", func() error {
		iters := 5
		if *n > 0 {
			iters = *n
		}
		res, err := eval.Sec48Timings(iters)
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatTimings(res))
		return nil
	})
}

// mergeBench merges value into the benchmark JSON at path under key,
// leaving every other key untouched (byte for byte, up to indentation):
// it replaces the key's value, or with appendToList appends value to the
// list stored there.
func mergeBench(path, key string, value any, appendToList bool) error {
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("existing %s is not JSON: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	raw, err := json.Marshal(value)
	if err != nil {
		return err
	}
	if appendToList {
		var list []json.RawMessage
		if json.Unmarshal(doc[key], &list) != nil {
			list = nil // absent or not a list: start one
		}
		if raw, err = json.Marshal(append(list, raw)); err != nil {
			return err
		}
	}
	doc[key] = raw
	data, err := json.MarshalIndent(doc, "", "\t")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("merged %s into %s\n", key, path)
	return nil
}
