package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets a test re-run the binary's main: with BLUEFI_EVAL_ARGS
// set, the test binary behaves as bluefi-eval with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("BLUEFI_EVAL_ARGS"); ok {
		os.Args = append([]string{"bluefi-eval"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestUnknownFigureExitsNonZero(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "BLUEFI_EVAL_ARGS=-fig bogus")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("-fig bogus: err %v, want exit status 1; output:\n%s", err, out)
	}
	for _, f := range figures {
		if !strings.Contains(string(out), f.id) {
			t.Errorf("error output does not list figure %q:\n%s", f.id, out)
		}
	}
}

func TestUnknownFigureRunsNothing(t *testing.T) {
	// A bad id anywhere in the list fails before the valid ones run.
	if _, err := runFigures(env{arg: "9, bogus"}); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("runFigures(9, bogus) = %v, want an unknown-figure error", err)
	}
}

func TestModeTableUnique(t *testing.T) {
	flags, keys := map[string]bool{}, map[string]bool{}
	for _, m := range modes {
		if flags[m.flag] {
			t.Errorf("flag -%s registered by two modes", m.flag)
		}
		flags[m.flag] = true
		if m.benchKey == "" {
			continue
		}
		if keys[m.benchKey] {
			t.Errorf("BENCH key %q written by two modes", m.benchKey)
		}
		keys[m.benchKey] = true
	}
	if last := modes[len(modes)-1]; last.flag != "fig" {
		t.Errorf("fallback mode is -%s, want -fig", last.flag)
	}
}

func TestParseSelectsMode(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		mode, arg string
		n         int
	}{
		{nil, "fig", "all", 0},
		{[]string{"-fig", "9", "-n", "4"}, "fig", "9", 4},
		{[]string{"-slo"}, "slo", "", 0},
		{[]string{"-serve", ":0"}, "serve", ":0", 0},
		{[]string{"-fig", "9", "-a2dp-soak"}, "a2dp-soak", "", 0},
	} {
		fs := flag.NewFlagSet("bluefi-eval", flag.ContinueOnError)
		m, e, err := parse(fs, tc.args)
		if err != nil {
			t.Fatalf("parse(%q): %v", tc.args, err)
		}
		if m.flag != tc.mode || e.arg != tc.arg || e.n != tc.n {
			t.Errorf("parse(%q) = -%s arg %q n %d, want -%s arg %q n %d",
				tc.args, m.flag, e.arg, e.n, tc.mode, tc.arg, tc.n)
		}
	}

	fs := flag.NewFlagSet("bluefi-eval", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, _, err := parse(fs, []string{"-fleet"}); err == nil {
		t.Error("the deleted -fleet flag still parses")
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 12 {
		t.Errorf("%d flags registered, want 12", n)
	}
}

func TestMergeBenchKeepsOtherKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{"keep": [1], "results": "old"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// An empty key merges the row's own top-level keys; appendRow
	// extends the list under the key.
	if err := mergeBench(path, "", struct {
		Results string `json:"results"`
		NumCPU  int    `json:"numCPU"`
	}{"new", 2}, false); err != nil {
		t.Fatal(err)
	}
	if err := mergeBench(path, "keep", 2, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"keep": []any{1.0, 2.0}, "results": "new", "numCPU": 2.0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged snapshot %v, want %v", got, want)
	}
}
