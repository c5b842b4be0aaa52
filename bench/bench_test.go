package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// printed reports whether a line reads `name value unit (n=samples)`.
func printed(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == name && f[2] == unit && strings.HasPrefix(f[3], "(n=") {
			return true
		}
	}
	return false
}

// TestSmoke runs every workload for a short window at seed 1, untraced and
// traced, through the same code path the benchmark command takes with the
// correctness checks on, and requires every metric BENCHMARK.json declares
// to be printed and summarised with its declared unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload; about a minute")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	var declared, runs []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		runs = append(runs, w.name)
	}
	if !slices.Equal(declared, runs) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, runs)
	}
	baseline := runtime.NumGoroutine()
	out := t.TempDir()
	for _, name := range runs {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", name, "-seed", "1", "-seconds", "2", "-trace", trace, "-out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s exited %d:\n%s%s", name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var summary struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("%s trace=%s: last line is not the JSON summary: %v", name, trace, err)
			}
			if !summary.Correct || summary.Attempted < 1 || summary.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", name, trace, summary.Correct, summary.Attempted, summary.Failed)
			}
			want := sp.EndToEnd
			if trace == "1" {
				want = sp.PerLayer
			}
			if len(summary.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics in the summary, BENCHMARK.json declares %d", name, trace, len(summary.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := summary.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s missing or not in %s: %+v", name, trace, m.Name, m.Unit, got)
				}
				if !printed(lines, m.Name, m.Unit) {
					t.Errorf("%s trace=%s: %s not printed as `name value unit (n=…)`", name, trace, m.Name)
				}
			}
			if trace == "1" {
				if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
	// Every goroutine the benchmark starts has ended.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the workloads", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
