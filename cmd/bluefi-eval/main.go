// Command bluefi-eval regenerates every figure and table of the paper's
// evaluation section (§4) on the simulated substrate and prints the text
// equivalent of each plot; it also runs the CI soaks and gates.
// EXPERIMENTS.md records the paper-vs-measured comparison these outputs
// feed.
//
//	bluefi-eval -fig all
//	bluefi-eval -fig 9 -n 40
//	bluefi-eval -bench-json            # BENCH_eval.json regression snapshot
//	bluefi-eval -serve :8399           # live /metrics + /health over a synthesis workload
//	bluefi-eval -obs-overhead          # telemetry overhead gate (CI)
//	bluefi-eval -alloc-gate            # §4.8 allocs/op and bytes/op regression gate vs BENCH_eval.json (CI)
//	bluefi-eval -slo                   # chaos storm through the SLO burn-rate engine (CI gate)
//	bluefi-eval -e2e                   # TX→RX conformance matrix → scanner PDR snapshot
//	bluefi-eval -fleet-soak            # beacon-CDN capacity soak + cache-hit-rate gate (CI)
//	bluefi-eval -a2dp-soak             # multi-session A2DP capacity knee + fault storm (CI)
//
// cmd/bluefi-fleet is the beacon-CDN daemon.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"bluefi/internal/chip"
	"bluefi/internal/eval"
)

// env is what a mode reads from the command line: its own flag's value
// (the -fig ids, the -serve address) and the shared flags.
type env struct {
	arg       string
	n         int
	benchOut  string
	flightDir string
}

// mode is one way to run bluefi-eval. run returns the mode's BENCH row,
// or nil when it records none; main merges the row into -bench-out
// under benchKey (appended to the list there with appendRow; an empty
// key merges the row's own top-level keys).
type mode struct {
	flag, usage string
	valued      bool   // the flag takes a value instead of being a switch
	def         string // a valued flag's default
	run         func(env) (any, error)
	benchKey    string
	appendRow   bool
}

// a2dpMinKnee is the session count the -a2dp-soak knee, and the storm's
// at-floor count, must sustain.
const a2dpMinKnee = 3

// modes is every mode in selection order: main runs the first one whose
// flag is set, and the last, -fig, when none is.
var modes = []mode{
	{flag: "a2dp-soak", usage: "run the multi-session A2DP capacity soak: ramp sessions to the admission knee, gate on delivery below it and through a fault storm, and merge the capacity curve into -bench-out",
		run: runA2DPSoak, benchKey: "a2dpCapacity"},
	{flag: "fleet-soak", usage: "run the beacon-CDN capacity soak (100k beacons, 64 APs), gate on the ≥90% steady-state cache hit rate, and merge the capacity curve into -bench-out",
		run: runFleetSoak, benchKey: "fleetCapacity"},
	{flag: "alloc-gate", usage: "re-measure §4.8 real-time allocs/op and quality bytes/op and fail if either exceeds the committed -bench-out snapshot by more than 5%",
		run: func(e env) (any, error) { return nil, runAllocGate(e.benchOut) }},
	{flag: "e2e", usage: "run the loopback conformance matrix (BLE/BR/EDR through channel and scanner) and merge the scanner PDR snapshot into -bench-out",
		run: func(e env) (any, error) { return runE2E(e.n) }, benchKey: "scannerPDR"},
	{flag: "slo", usage: "replay the chaos storm through the SLO burn-rate engine, gate on exactly one page episode + recovery + a valid flight bundle, and append the episode and degradation summary to -bench-out",
		run: func(e env) (any, error) { return runSLO(e.flightDir) }, benchKey: "sloEpisodes", appendRow: true},
	{flag: "serve", valued: true, usage: "serve /metrics, /metrics.json, /traces, /health, /debug/slo and /debug/flight on this address (e.g. :8399) over a continuous synthesis workload",
		run: func(e env) (any, error) { return nil, runServe(e.arg, e.flightDir) }},
	{flag: "obs-overhead", usage: "measure telemetry overhead on BenchmarkSynthesize and fail if attached/disabled ns/op exceeds 1.05",
		run: func(env) (any, error) { return nil, runObsOverhead() }},
	{flag: "bench-json", usage: "run the benchmark suite and merge its rows into -bench-out",
		run: func(env) (any, error) { return runBenchJSON() }},
	{flag: "fig", valued: true, def: "all", usage: "comma-separated figures to regenerate: 5b, 5c, 6, 7a, 7b, 7c, 8, 9, 10, timing, all",
		run: runFigures},
}

func main() {
	m, e, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	row, err := m.run(e)
	if err == nil && row != nil {
		err = mergeBench(e.benchOut, m.benchKey, row, m.appendRow)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bluefi-eval: %s: %v\n", m.flag, err)
		os.Exit(1)
	}
}

// parse registers the shared flags and one flag per mode on fs, parses
// args and returns the selected mode with its settings.
func parse(fs *flag.FlagSet, args []string) (mode, env, error) {
	var e env
	fs.IntVar(&e.n, "n", 0, "override per-point sample count (0 = default)")
	fs.StringVar(&e.benchOut, "bench-out", "BENCH_eval.json", "BENCH snapshot the modes merge their rows into (and -alloc-gate reads)")
	fs.StringVar(&e.flightDir, "flight-dir", "flight", "directory for flight-recorder bundles (-slo, -serve, -a2dp-soak)")
	on := make([]bool, len(modes))
	vals := make([]string, len(modes))
	for i, m := range modes {
		if m.valued {
			fs.StringVar(&vals[i], m.flag, m.def, m.usage)
		} else {
			fs.BoolVar(&on[i], m.flag, false, m.usage)
		}
	}
	if err := fs.Parse(args); err != nil {
		return mode{}, env{}, err
	}
	i := 0
	for i < len(modes)-1 && !on[i] && vals[i] == modes[i].def {
		i++
	}
	e.arg = vals[i]
	return modes[i], e, nil
}

func runA2DPSoak(e env) (any, error) {
	cfg := eval.DefaultA2DPSoak()
	cfg.FlightDir = e.flightDir
	fmt.Printf("a2dp soak: %d workers, %.2f service slots/segment, up to %d sessions\n",
		cfg.Workers, cfg.ServiceSlots, cfg.MaxSessions)
	res, err := eval.A2DPSoak(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(eval.FormatA2DPSoak(res))
	return res, res.Check(a2dpMinKnee)
}

func runFleetSoak(env) (any, error) {
	cfg := eval.DefaultFleetSoak()
	fmt.Printf("fleet soak: %d beacons, %d unique payloads, %d APs, seed %d\n",
		cfg.Beacons, cfg.UniquePayloads, cfg.APs, cfg.Seed)
	res, err := eval.FleetSoak(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(eval.FormatFleetSoak(res))
	return res, res.Check(cfg)
}

// figures are the -fig ids in print order. Each regenerates one figure
// with n samples per point (0 = the figure's default) and returns its
// text rendering.
var figures = []struct {
	id  string
	run func(n int) (string, error)
}{
	{"5b", func(n int) (string, error) {
		cfg := eval.DefaultFig5(chip.AR9331)
		cfg.Reports = orDefault(n, cfg.Reports)
		traces, err := eval.Fig5Distance(cfg)
		return eval.FormatTraces("Fig 5b — RSSI vs distance (AR9331, 18 dBm)", traces), err
	}},
	{"5c", func(n int) (string, error) {
		cfg := eval.DefaultFig5(chip.RTL8811AU)
		cfg.Reports = orDefault(n, cfg.Reports)
		traces, err := eval.Fig5Distance(cfg)
		return eval.FormatTraces("Fig 5c — RSSI vs distance (RTL8811AU)", traces), err
	}},
	{"6", func(n int) (string, error) {
		cfg := eval.DefaultFig6()
		cfg.PacketsPerLevel = orDefault(n, cfg.PacketsPerLevel)
		points, err := eval.Fig6TxPower(cfg)
		var sb strings.Builder
		sb.WriteString("Fig 6 — RSSI vs transmit power (1.5 m)\n")
		last := ""
		for _, p := range points {
			if p.Receiver != last {
				fmt.Fprintf(&sb, "  %s:\n", p.Receiver)
				last = p.Receiver
			}
			fmt.Fprintf(&sb, "    %4.0f dBm: meanRSSI=%7.1f dBm received=%3.0f%%\n",
				p.TxPowerDBm, p.MeanRSSI, 100*p.Received)
		}
		return sb.String(), err
	}},
	{"7a", func(n int) (string, error) {
		pts, err := eval.Fig7aDedicatedBT(orDefault(n, 10), 7)
		var sb strings.Builder
		sb.WriteString("Fig 7a — dedicated Bluetooth hardware (8 dBm, 1.5 m)\n")
		for _, p := range pts {
			fmt.Fprintf(&sb, "  %-14s meanRSSI=%7.1f dBm received=%3.0f%%\n", p.Pair, p.MeanRSSI, 100*p.Received)
		}
		return sb.String(), err
	}},
	{"7b", func(int) (string, error) {
		scs, err := eval.Fig7bThroughput(120)
		return eval.FormatThroughput(scs), err
	}},
	{"7c", func(n int) (string, error) {
		traces, err := eval.Fig7cBackgroundTraffic(orDefault(n, 12), 11)
		return eval.FormatTraces("Fig 7c — RSSI under saturated background WiFi", traces), err
	}},
	{"8", func(n int) (string, error) {
		cfg := eval.DefaultFig8()
		cfg.PacketsPerStage = orDefault(n, cfg.PacketsPerStage)
		pts, err := eval.Fig8Impairments(cfg)
		return eval.FormatImpairments(pts), err
	}},
	{"9", func(n int) (string, error) {
		cfg := eval.DefaultFig9()
		cfg.PacketsPerChannel = orDefault(n, cfg.PacketsPerChannel)
		rows, err := eval.Fig9SingleSlotPER(cfg)
		return eval.FormatChannelPER("Fig 9 — PER with single-slot (DM1) packets", rows), err
	}},
	{"10", func(n int) (string, error) {
		cfg := eval.DefaultFig10()
		cfg.Packets = orDefault(n, cfg.Packets)
		multi, err := eval.Fig10AudioPER(cfg)
		if err != nil {
			return "", err
		}
		single, err := eval.Fig10AudioSingleSlot(cfg)
		if err != nil {
			return "", err
		}
		return eval.FormatAudio(multi) +
			"  (single-slot comparison, §4.7's short-packet trade-off:)\n" +
			eval.FormatAudio(single), nil
	}},
	{"timing", func(n int) (string, error) {
		res, err := eval.Sec48Timings(orDefault(n, 5))
		return eval.FormatTimings(res), err
	}},
}

// runFigures regenerates the comma-separated figure ids in e.arg ("all"
// for every figure), rejecting unknown ids before running any.
func runFigures(e env) (any, error) {
	ids := []string{}
	for _, f := range figures {
		ids = append(ids, f.id)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(e.arg, ",") {
		id = strings.TrimSpace(id)
		if id != "all" && !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown figure %q (valid: %s, all)", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	for _, f := range figures {
		if want["all"] || want[f.id] {
			text, err := f.run(e.n)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f.id, err)
			}
			fmt.Print(text)
		}
	}
	return nil, nil
}

// orDefault is n when the -n override is set, def otherwise.
func orDefault(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// mergeBench merges value into the benchmark JSON at path under key,
// leaving every other key untouched (byte for byte, up to indentation):
// it replaces the key's value, or with appendToList appends value to the
// list stored there. An empty key merges each of value's top-level keys
// instead.
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
	switch {
	case key == "":
		if err := json.Unmarshal(raw, &doc); err != nil {
			return err
		}
	case appendToList:
		var list []json.RawMessage
		if json.Unmarshal(doc[key], &list) != nil {
			list = nil // absent or not a list: start one
		}
		if doc[key], err = json.Marshal(append(list, raw)); err != nil {
			return err
		}
	default:
		doc[key] = raw
	}
	data, err := json.MarshalIndent(doc, "", "\t")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("merged %s into %s\n", cmp.Or(key, "snapshot"), path)
	return nil
}
