package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bluefi"
)

// workload is one traffic shape the benchmark can drive.
type workload struct {
	name string
	// tailPct is the percentile latency_tail_ms reports: the highest
	// standard percentile the workload's sample count in a 30 s window
	// resolves (p75 needs 40 samples, p99 1000). An A2DP window holds
	// fewer sends than that; its tail is reported and flagged unresolved.
	tailPct float64
	// stride traces every stride-th request, bounding trace memory for
	// closed loops that issue millions of calls.
	stride int64
	run    func(*bench) (*outcome, error)
}

// workloads in the order BENCHMARK.json lists them.
var workloads = []workload{
	{name: "beacon", tailPct: 75, stride: 1, run: runBeacon},
	{name: "a2dp", tailPct: 75, stride: 1, run: runA2DP},
	{name: "fleet", tailPct: 99, stride: 256, run: runFleet},
}

// setupReps is how many times each run builds its serving objects;
// setup_s is the median.
const setupReps = 3

// traceCapacity bounds the program's in-memory span ring in traced runs;
// the pool-wait ledger reads every job span of the window from it.
const traceCapacity = 1 << 18

// bench is the state one workload run shares with the helpers.
type bench struct {
	cfg config
	tr  *tracer // nil in untraced runs
	smp *sampler
}

func (b *bench) workers() int { return runtime.GOMAXPROCS(0) }

// telemetry returns a registry to attach as Options.Telemetry in traced
// runs, nil otherwise.
func (b *bench) telemetry() *bluefi.Telemetry {
	if b.tr == nil {
		return nil
	}
	reg := bluefi.NewTelemetry()
	reg.SetTraceCapacity(traceCapacity)
	return reg
}

// deadline returns when a closed loop's measured window ends.
func (b *bench) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(b.cfg.seconds * float64(time.Second)))
}

// setUp builds a workload's serving objects setupReps times, tearing down
// all but the last, and returns the last with every build's time in
// seconds.
func setUp[T any](build func() (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC() // start every build from a collected heap
		t0 := now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, now().Sub(t0).Seconds())
		last = v
	}
	return last, times, nil
}

// outcome is what a workload hands back for scoring.
type outcome struct {
	setups []float64 // seconds per set-up

	latMs []float64 // end-to-end latency samples kept
	latN  int       // latency samples taken (≥ len(latMs))

	attempted, failed int
	served            int           // requests completed: throughput's numerator
	elapsed           time.Duration // measured window, drain included
	good, units       int           // success_ratio = good / units
	problems          []string      // failed correctness checks

	details []metric

	// Traced runs: the program's own telemetry over the window, the mean
	// pool wait, and the span names of the public entry calls.
	tel    counts
	waitMs float64
	entry  []string
	air    *airStats
	depth  float64 // mean sampled pool queue depth
	depthN int
}

func (o *outcome) addLatency(v float64) {
	o.latMs = append(o.latMs, v)
	o.latN++
}

// fail records a failed operation or correctness check.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, err.Error())
	}
}

func (o *outcome) detail(name string, v float64, unit string, n int, note string) {
	o.details = append(o.details, metric{Name: name, Value: v, Unit: unit, N: n, Note: note})
}

// ledger reads the program's telemetry and the pool-wait ledger at the end
// of a traced window that started at start.
func (b *bench) ledger(o *outcome, reg *bluefi.Telemetry, before counts, start time.Time, submits []time.Time) {
	o.depth, o.depthN = b.smp.queueDepth()
	if reg == nil {
		return
	}
	o.tel = readCounts(reg).minus(before)
	var jobs int
	o.waitMs, jobs = poolWait(reg, start, submits)
	if jobs != len(submits) {
		o.detail("pool.wait_jobs_unmatched", float64(jobs-len(submits)), "count", jobs,
			"job spans found minus jobs submitted; the wait mean is approximate")
	}
}

// measure runs one workload and scores it.
func measure(cfg config, wl workload) (*result, error) {
	b := &bench{cfg: cfg}
	if cfg.trace {
		b.tr = newTracer(now(), wl.stride)
	}
	b.smp = startSampler()
	o, err := wl.run(b)
	heapMB := b.smp.heapPeakMB()
	b.smp.halt()
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Trace:     cfg.trace,
		Env:       environmentNow(),
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Problems:  o.problems,
	}
	lat := sortedCopy(o.latMs)
	note := fmt.Sprintf("p%g", wl.tailPct)
	if !resolved(len(lat), wl.tailPct) {
		note += fmt.Sprintf(" unresolved: fewer than %d samples beyond it", minBeyond)
	}
	e2e := []metric{
		{Name: "latency_p50_ms", Value: percentile(lat, 50), Unit: "ms", N: o.latN},
		{Name: "latency_tail_ms", Value: percentile(lat, wl.tailPct), Unit: "ms", N: o.latN, Note: note},
		{Name: "throughput_per_s", Value: ratio(float64(o.served), o.elapsed.Seconds()), Unit: "1/s", N: o.served},
		{Name: "success_ratio", Value: ratio(float64(o.good), float64(o.units)), Unit: "ratio", N: o.units},
		{Name: "setup_s", Value: median(o.setups), Unit: "s", N: len(o.setups)},
		{Name: "heap_peak_mb", Value: heapMB, Unit: "MB", N: 1},
	}
	if pct, ok := resolvedPercentile(len(lat)); ok {
		o.detail("latency_resolved_ms", percentile(lat, pct), "ms", o.latN, fmt.Sprintf("p%g, the highest percentile with ≥%d samples beyond it", pct, minBeyond))
	}
	if !cfg.trace {
		res.Metrics = e2e
		res.Details = o.details
		return res, nil
	}
	spans := b.tr.snapshot()
	sum := summarize(spans)
	res.Spans = &sum
	res.Metrics = layerMetrics(o, spans, sum)
	// The traced run also reports its end-to-end numbers, so the tracing
	// overhead can be read against the untraced run of the same seed.
	res.Details = append(e2e, o.details...)
	if base, err := readResult(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err == nil {
		if p50 := find(base.Metrics, "latency_p50_ms"); p50 > 0 {
			res.Details = append(res.Details, metric{Name: "bench.trace_overhead", Value: e2e[0].Value / p50, Unit: "ratio", N: o.latN,
				Note: "traced ÷ untraced latency_p50_ms at this seed"})
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"), spans, sum); err != nil {
		return nil, err
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(o *outcome, spans []span, sum traceSummary) []metric {
	var entry []float64
	for _, s := range spans {
		for _, name := range o.entry {
			if s.Name == name {
				entry = append(entry, float64(s.dur())/1e6)
			}
		}
	}
	t := o.tel
	stages := t.stage[0] + t.stage[1] + t.stage[2] + t.stage[3]
	perPacket := func(v float64) float64 { return ratio(v, t.synths) }
	n := int(t.synths)
	air := o.air.counts()
	// The benchmark's own time: its spans plus root time no span covers.
	self := sum.UnattributedMs * float64(sum.Roots)
	for _, l := range sum.Layers {
		if strings.HasPrefix(l.Name, "bench.") {
			self += l.MeanMs * float64(l.N)
		}
	}
	layer := func(name, span string) metric {
		l := sum.layer(span)
		return metric{Name: name, Value: l.P50Ms, Unit: "ms", N: l.N}
	}
	return []metric{
		{Name: "entry.call_ms_p50", Value: median(entry), Unit: "ms", N: len(entry)},
		{Name: "pool.wait_ms_mean", Value: o.waitMs, Unit: "ms", N: int(t.jobs)},
		{Name: "pool.job_ms_mean", Value: 1e3 * ratio(t.jobSecs, t.jobs), Unit: "ms", N: int(t.jobs)},
		{Name: "pool.queue_depth_mean", Value: o.depth, Unit: "count", N: o.depthN},
		{Name: "core.synth_ms_mean", Value: 1e3 * perPacket(t.synthSecs), Unit: "ms", N: n},
		{Name: "core.iqgen_ms", Value: 1e3 * perPacket(t.stage[0]), Unit: "ms", N: n},
		{Name: "core.fftqam_ms", Value: 1e3 * perPacket(t.stage[1]), Unit: "ms", N: n},
		{Name: "core.fec_ms", Value: 1e3 * perPacket(t.stage[2]), Unit: "ms", N: n},
		{Name: "core.scramble_ms", Value: 1e3 * perPacket(t.stage[3]), Unit: "ms", N: n},
		{Name: "core.other_ms", Value: 1e3 * perPacket(t.synthSecs-stages), Unit: "ms", N: n},
		{Name: "core.stage_coverage", Value: ratio(stages, t.synthSecs), Unit: "ratio", N: n},
		{Name: "core.candidates_per_packet", Value: perPacket(t.candidates), Unit: "count", N: n},
		{Name: "core.rehearsal_dirty_ratio", Value: perPacket(t.dirty), Unit: "ratio", N: n},
		{Name: "viterbi.trellis_steps_per_packet", Value: perPacket(t.trellis), Unit: "count", N: n},
		{Name: "viterbi.rt_inversions_per_packet", Value: perPacket(t.rtInversions), Unit: "count", N: n},
		{Name: "a2dp.reslots_per_segment", Value: ratio(t.reslots, float64(air.captures)), Unit: "count", N: air.captures},
		layer("chip.transmit_ms_p50", "chip.Transmit"),
		layer("channel.apply_ms_p50", "channel.Apply"),
		layer("scan.ingest_ms_p50", "scan.Ingest"),
		{Name: "scan.crc_fail_ratio", Value: ratio(float64(air.crc), float64(air.detected)), Unit: "ratio", N: air.detected},
		{Name: "scan.clean_rehearsal_undecoded", Value: float64(air.cleanUndecoded), Unit: "count", N: air.captures},
		{Name: "bench.self_ms_mean", Value: ratio(self, float64(sum.Roots)), Unit: "ms", N: sum.Roots},
		{Name: "bench.trace_coverage", Value: sum.Coverage, Unit: "ratio", N: sum.Roots},
	}
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	return &r, json.Unmarshal(data, &r)
}
