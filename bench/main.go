// Command bench is the BlueFi benchmark. It drives one workload through the
// public entry points (bluefi.Pool, bluefi.SessionManager, internal/fleet),
// passes every served PSDU through the chip, channel and scanner models,
// checks the decoded bits, and prints one metric per line followed by a
// JSON summary. See README.md for the workloads and metrics.
//
//	go run . -workload beacon -seed 1 -seconds 30 -trace 0 -out out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config holds the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "all", "beacon, a2dp, fleet or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 records per-layer spans and reports the per-layer metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if cfg.workload == "all" {
		return runAll(cfg, stdout, stderr)
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == cfg.workload })
	if i < 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := measure(cfg, workloads[i])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := report(cfg, res, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s failed its correctness checks: %s\n", cfg.workload, strings.Join(res.Problems, "; "))
		return 1
	}
	return 0
}

// runAll runs each workload in its own process, so no workload inherits
// another's heap or warmed caches.
func runAll(cfg config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, wl := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(exe, "-workload", wl.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", wl.name, err)
			code = 1
		}
	}
	return code
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// environment records where a result was measured.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
}

// result is one workload run, as written to <out>/<workload>-seed<N>.json.
type result struct {
	Workload  string        `json:"workload"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Trace     bool          `json:"trace"`
	Env       environment   `json:"env"`
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Problems  []string      `json:"problems,omitempty"`
	Metrics   []metric      `json:"metrics"`
	Details   []metric      `json:"details"`
	Spans     *traceSummary `json:"traceSummary,omitempty"`
}

// commit returns the checked-out revision, or "unknown" outside a git
// work tree. Git may not search above the working directory.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report prints every metric as `name value unit (n=samples)`, writes the
// result file, and ends with the one-line JSON summary.
func report(cfg config, res *result, w io.Writer) error {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d %s commit=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit)
	for _, group := range [][]metric{res.Metrics, res.Details} {
		for _, m := range group {
			fmt.Fprintf(w, "%s %.6g %s (n=%d)", m.Name, m.Value, m.Unit, m.N)
			if m.Note != "" {
				fmt.Fprintf(w, " [%s]", m.Note)
			}
			fmt.Fprintln(w)
		}
	}
	if t := res.Spans; t != nil {
		fmt.Fprintf(w, "# per-layer spans: %d requests traced, child spans cover %.1f%% of request time\n", t.Roots, 100*t.Coverage)
		fmt.Fprintf(w, "# %-22s %8s %10s %10s %10s %8s\n", "span", "n", "p50 ms", "mean ms", "self ms", "share")
		for _, l := range t.Layers {
			fmt.Fprintf(w, "# %-22s %8d %10.4g %10.4g %10.4g %7.1f%%\n", l.Name, l.N, l.P50Ms, l.MeanMs, l.SelfMs, 100*l.ShareOf)
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d.json", res.Workload, res.Seed)
	if res.Trace {
		name = fmt.Sprintf("%s-seed%d-trace.json", res.Workload, res.Seed)
	}
	if err := os.WriteFile(filepath.Join(cfg.out, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	summary := map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
	}
	metrics := map[string]any{}
	for _, m := range res.Metrics {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	summary["metrics"] = metrics
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func environmentNow() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}
