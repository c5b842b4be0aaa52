package main

// Benchmark regression harness (-bench-json): runs the §4.8
// packet-generation benches and the Fig 9/10 harnesses under
// testing.Benchmark and merges ns/op and allocs/op into BENCH_eval.json
// — a committed-format snapshot that successive changes diff against.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"bluefi"
	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/core"
	"bluefi/internal/eval"
	"bluefi/internal/gfsk"
	"bluefi/internal/obs"
)

// benchResult is one row of the JSON snapshot.
type benchResult struct {
	Name        string  `json:"name"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
}

// stageRow is one per-stage timing entry, sourced from the telemetry
// registry rather than hand-threaded Timings structs — the two agree by
// construction (the histograms and Result.Timings share one span
// measurement), and the registry also counts every search candidate.
type stageRow struct {
	Mode    string  `json:"mode"`
	Packet  string  `json:"packet"`
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	MeanNs  float64 `json:"meanNs"`
	TotalNs float64 `json:"totalNs"`
}

type benchSnapshot struct {
	Generated string        `json:"generated"`
	GoVersion string        `json:"goVersion"`
	NumCPU    int           `json:"numCPU"`
	Results   []benchResult `json:"results"`
	Stages    []stageRow    `json:"stageBreakdown"`
}

func record(out *benchSnapshot, name string, fn func(b *testing.B)) {
	r := testing.Benchmark(fn)
	out.Results = append(out.Results, benchResult{
		Name:        name,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	})
	fmt.Printf("  %-44s %12.0f ns/op %10d allocs/op (n=%d, P=%d)\n",
		name, out.Results[len(out.Results)-1].NsPerOp, r.AllocsPerOp(), r.N, runtime.GOMAXPROCS(0))
}

// sec48Bench mirrors bench_test.go's §4.8 scenario: PSDU-only synthesis
// of a DM packet, one synthesizer per goroutine.
func sec48Bench(mode core.Mode, payloadLen int, pt bt.PacketType, parallel bool) func(b *testing.B) {
	return func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.Mode = mode
		opts.GFSK = gfsk.BRConfig()
		opts.PSDUOnly = true
		opts.DynamicScale = false
		pkt := &bt.Packet{Type: pt, LTAddr: 1, Payload: make([]byte, payloadLen)}
		air, err := pkt.AirBits(bt.Device{LAP: 0x123456, UAP: 0x9A})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if parallel {
			b.RunParallel(func(pb *testing.PB) {
				s, err := core.New(opts)
				if err != nil {
					b.Error(err)
					return
				}
				for pb.Next() {
					if _, err := s.Synthesize(air, 2426); err != nil {
						b.Error(err)
						return
					}
				}
			})
			return
		}
		s, err := core.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := s.Synthesize(air, 2426); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// phaseSearchBench isolates the rehearsal-scored search: full synthesis
// of a beacon with the candidate search serial or fanned over workers.
func phaseSearchBench(parallelism int) func(b *testing.B) {
	return func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.GFSK = gfsk.BLEConfig()
		opts.SearchParallelism = parallelism
		ib := bluefi.IBeacon{Major: 3}
		adv := &bt.Advertisement{PDUType: bt.AdvNonconnInd, AdvA: [6]byte{1, 2, 3, 4, 5, 6}, Data: ib.ADStructures()}
		air, err := adv.AirBits(38)
		if err != nil {
			b.Fatal(err)
		}
		synthBench(b, opts, air, nil)
	}
}

// realtimeDM1Bench is the synthesis A2DP runs: DefaultOptions in
// RealTime mode (dynamic scale, CP and pilot precompensation, the
// rehearsal-scored phase search) on a 17-byte BR DM1 packet, with the
// search serial and stopping on the packet's FEC layout as the audio
// path's does. Unlike the PSDU-only sec48 rows it builds the predicted
// waveform, so it times the channel filters the rehearsal and fidelity
// run.
func realtimeDM1Bench(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Mode = core.RealTime
	opts.GFSK = gfsk.BRConfig()
	opts.SearchParallelism = 1
	pkt := &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: make([]byte, 17)}
	air, err := pkt.AirBits(bt.Device{LAP: 0x123456, UAP: 0x9A})
	if err != nil {
		b.Fatal(err)
	}
	synthBench(b, opts, air, pkt.FECLayout(btrx.SyncErrorBudget))
}

// synthBench times SynthesizeFEC of air at 2426 MHz under layout (nil
// for an unprotected packet) on one synthesizer built from opts before
// the timer starts.
func synthBench(b *testing.B, opts core.Options, air []byte, layout bt.FECLayout) {
	s, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SynthesizeFEC(air, 2426, layout); err != nil {
			b.Fatal(err)
		}
	}
}

func fig9Bench(parallelism int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := eval.DefaultFig9()
			cfg.PacketsPerChannel = 2
			cfg.Parallelism = parallelism
			if _, err := eval.Fig9SingleSlotPER(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func fig10Bench() func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := eval.DefaultFig10()
			cfg.Packets = 4
			if _, err := eval.Fig10AudioPER(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func poolBeaconBench() func(b *testing.B) {
	return func(b *testing.B) {
		pool, err := bluefi.NewPool(bluefi.Options{Chip: bluefi.RTL8811AU, Mode: bluefi.RealTime}, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		const batch = 8
		jobs := make([]bluefi.BeaconJob, batch)
		for i := range jobs {
			ib := bluefi.IBeacon{Major: uint16(i + 1)}
			jobs[i] = bluefi.BeaconJob{ADStructures: ib.ADStructures(), Addr: [6]byte{1, 2, 3, 4, 5, byte(i)}, BLEChannel: 38}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			for _, res := range pool.BeaconBatch(jobs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	}
}

// stageBreakdown runs the §4.8 timing scenario with a telemetry registry
// attached and reads the per-stage breakdown back out of the
// bluefi_core_stage_seconds histograms. The "searched" rows add the
// synthesis A2DP runs — the predicted waveform and the serial rehearsal
// search stopping on the packet's FEC layout — whose precomp and
// rehearse stages the PSDU-only scenario never reaches.
func stageBreakdown(iterations int) ([]stageRow, error) {
	var rows []stageRow
	for _, mode := range []core.Mode{core.Quality, core.RealTime} {
		for _, pc := range []struct {
			name       string
			pt         bt.PacketType
			payloadLen int
			searched   bool
		}{
			{"1-slot (DM1)", bt.DM1, 17, false},
			{"5-slot (DM5)", bt.DM5, 224, false},
			{"1-slot (DM1) searched", bt.DM1, 17, true},
		} {
			reg := obs.NewRegistry()
			opts := core.DefaultOptions()
			opts.Mode = mode
			opts.GFSK = gfsk.BRConfig()
			if pc.searched {
				opts.SearchParallelism = 1
			} else {
				opts.PSDUOnly = true
				opts.DynamicScale = false
			}
			opts.Telemetry = reg
			s, err := core.New(opts)
			if err != nil {
				return nil, err
			}
			pkt := &bt.Packet{Type: pc.pt, LTAddr: 1, Payload: make([]byte, pc.payloadLen)}
			var layout bt.FECLayout
			if pc.searched {
				layout = pkt.FECLayout(btrx.SyncErrorBudget)
			}
			for i := 0; i < iterations; i++ {
				pkt.Clock = uint32(4 * i)
				air, err := pkt.AirBits(bt.Device{LAP: 0x123456, UAP: 0x9A})
				if err != nil {
					return nil, err
				}
				if _, err := s.SynthesizeFEC(air, 2426, layout); err != nil {
					return nil, err
				}
			}
			for _, fam := range reg.Snapshot().Families {
				if fam.Name != "bluefi_core_stage_seconds" {
					continue
				}
				for _, m := range fam.Metrics {
					for _, l := range m.Labels {
						if l.Key != "stage" || m.Count == 0 {
							continue
						}
						rows = append(rows, stageRow{
							Mode:    mode.String(),
							Packet:  pc.name,
							Stage:   l.Value,
							Count:   m.Count,
							MeanNs:  m.Sum * 1e9 / float64(m.Count),
							TotalNs: m.Sum * 1e9,
						})
					}
				}
			}
		}
	}
	return rows, nil
}

// allocGateTolerance is how far a gated sec48 row may drift above the
// committed BENCH_eval.json snapshot before the gate fails.
const allocGateTolerance = 1.05

// allocGates are the rows runAllocGate re-measures: real-time allocs/op
// (the runtime counterpart of the //bluefi:allocfree hot-path contract)
// and quality bytes/op (dominated by the weighted Viterbi's survivors).
var allocGates = []struct {
	row, unit string
	bench     func(b *testing.B)
	committed func(benchResult) int64
	measured  func(testing.BenchmarkResult) int64
}{
	{"sec48/realtime-1slot-cpu1", "allocs/op", sec48Bench(core.RealTime, 17, bt.DM1, false),
		func(r benchResult) int64 { return r.AllocsPerOp }, testing.BenchmarkResult.AllocsPerOp},
	{"sec48/quality-1slot-cpu1", "bytes/op", sec48Bench(core.Quality, 17, bt.DM1, false),
		func(r benchResult) int64 { return r.BytesPerOp }, testing.BenchmarkResult.AllocedBytesPerOp},
}

// runAllocGate re-measures each allocGates row at GOMAXPROCS 1 and fails
// when it exceeds the committed snapshot's row by more than 5%.
// Improvements print a reminder to re-snapshot but do not fail.
func runAllocGate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading snapshot: %w (run `make bench-json` to create it)", err)
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, g := range allocGates {
		var committed int64 = -1
		for _, r := range snap.Results {
			if r.Name == g.row {
				committed = g.committed(r)
			}
		}
		if committed < 0 {
			return fmt.Errorf("%s has no %q row", path, g.row)
		}
		got := g.measured(testing.Benchmark(g.bench))
		limit := int64(float64(committed) * allocGateTolerance)
		fmt.Printf("alloc-gate: %s measured %d %s, snapshot %d (limit %d)\n",
			g.row, got, g.unit, committed, limit)
		if got > limit {
			return fmt.Errorf("%s %s regressed: %d > %d (snapshot %d +5%%); fix the regression or re-snapshot with `make bench-json` and justify the diff",
				g.row, g.unit, got, limit, committed)
		}
		if got < committed*95/100 {
			fmt.Printf("alloc-gate: %s improvement detected (%d → %d); consider re-snapshotting with `make bench-json`\n",
				g.row, committed, got)
		}
	}
	return nil
}

// runBenchJSON executes the suite at GOMAXPROCS 1 and 4 (the -cpu 1,4
// comparison: serial baseline versus the concurrency layer), skipping
// any GOMAXPROCS above runtime.NumCPU() — such rows only measure
// oversubscription — and returns the snapshot, whose top-level keys
// main merges into -bench-out next to the soak, SLO and e2e rows.
func runBenchJSON() (*benchSnapshot, error) {
	snap := &benchSnapshot{
		Generated: time.Now().UTC().Format(time.RFC3339), //bluefi:nondeterministic-ok snapshot provenance timestamp in BENCH_eval.json
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, procs := range []int{1, 4} {
		if procs > snap.NumCPU {
			fmt.Printf("bench-json: skipping GOMAXPROCS=%d (NumCPU %d)\n", procs, snap.NumCPU)
			continue
		}
		runtime.GOMAXPROCS(procs)
		tag := fmt.Sprintf("-cpu%d", procs)
		fmt.Printf("bench-json at GOMAXPROCS=%d:\n", procs)
		record(snap, "sec48/quality-1slot"+tag, sec48Bench(core.Quality, 17, bt.DM1, false))
		record(snap, "sec48/quality-5slot"+tag, sec48Bench(core.Quality, 224, bt.DM5, false))
		record(snap, "sec48/realtime-1slot"+tag, sec48Bench(core.RealTime, 17, bt.DM1, false))
		record(snap, "sec48/realtime-5slot"+tag, sec48Bench(core.RealTime, 224, bt.DM5, false))
		record(snap, "sec48/realtime-1slot-throughput"+tag, sec48Bench(core.RealTime, 17, bt.DM1, true))
		record(snap, "phase-search/serial"+tag, phaseSearchBench(1))
		record(snap, "phase-search/parallel"+tag, phaseSearchBench(4))
		record(snap, "phase-search/realtime-dm1-serial"+tag, realtimeDM1Bench)
		record(snap, "fig9/serial"+tag, fig9Bench(1))
		record(snap, "fig9/parallel"+tag, fig9Bench(4))
		record(snap, "fig10/audio"+tag, fig10Bench())
		record(snap, "pool/beacon-batch"+tag, poolBeaconBench())
	}

	rows, err := stageBreakdown(10)
	if err != nil {
		return nil, err
	}
	snap.Stages = rows
	fmt.Printf("stage breakdown (telemetry-sourced, 10 iterations):\n")
	for _, r := range rows {
		fmt.Printf("  %-10s %-22s %-9s %12.0f ns mean (n=%d)\n", r.Mode, r.Packet, r.Stage, r.MeanNs, r.Count)
	}
	return snap, nil
}
