// bluefi-lint is the repo's multichecker: seven BlueFi-specific
// analyzers (determinism, poolbalance, lockcheck, scratchalias,
// alloccheck, leakcheck, obsnames) plus the two std-style passes
// `go vet` does not cover here (atomicassign, nilness), in one binary
// invocation. copylocks and loopclosure come from `go vet ./...`.
//
// Usage:
//
//	bluefi-lint [flags] [packages...]
//
//	-list                 list analyzers and exit
//	-run regexp           only run analyzers whose name matches
//	-json                 emit diagnostics as a JSON array (the
//	                      lint_baseline.json interchange shape)
//	-baseline file        filter out findings recorded in the baseline;
//	                      the exit status then reflects NEW findings only
//	-write-baseline file  write all current findings to the baseline
//	                      file and exit 0
//	-cache                reuse per-package results from .lintcache/
//	                      when sources, deps and the lint binary are
//	                      unchanged
//	-escape               corroborate alloccheck findings against the
//	                      compiler's escape analysis (-gcflags=-m):
//	                      sites the compiler proves non-escaping are
//	                      downgraded; implies -cache off
//
// Packages default to ./... relative to the enclosing module. The exit
// status is 1 when any (new) diagnostic is reported, so `make lint`
// gates CI.
//
// The framework is self-contained (no golang.org/x/tools dependency):
// see internal/analysis/framework. Invariant annotations understood by
// the analyzers are documented in DESIGN.md §7 and §11.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"

	"bluefi/internal/analysis/alloccheck"
	"bluefi/internal/analysis/determinism"
	"bluefi/internal/analysis/framework"
	"bluefi/internal/analysis/leakcheck"
	"bluefi/internal/analysis/lockcheck"
	"bluefi/internal/analysis/obsnames"
	"bluefi/internal/analysis/poolbalance"
	"bluefi/internal/analysis/scratchalias"
	"bluefi/internal/analysis/stdchecks"
)

var all = []*framework.Analyzer{
	determinism.Analyzer,
	poolbalance.Analyzer,
	lockcheck.Analyzer,
	scratchalias.Analyzer,
	alloccheck.Analyzer,
	leakcheck.Analyzer,
	obsnames.Analyzer,
	stdchecks.AtomicAssign,
	stdchecks.Nilness,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "only run analyzers whose name matches this regexp")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	baseline := flag.String("baseline", "", "filter findings recorded in this baseline file; exit status reflects new findings only")
	writeBaseline := flag.String("write-baseline", "", "write all current findings to this baseline file and exit 0")
	cache := flag.Bool("cache", false, "reuse per-package results from .lintcache/ when inputs are unchanged")
	escape := flag.Bool("escape", false, "downgrade alloccheck findings the compiler's escape analysis (-gcflags=-m) proves non-escaping")
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-lint: bad -run regexp: %v\n", err)
			os.Exit(2)
		}
		analyzers = nil
		for _, a := range all {
			if re.MatchString(a.Name) {
				analyzers = append(analyzers, a)
			}
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bluefi-lint: %v\n", err)
		os.Exit(2)
	}

	opts := framework.Options{JSON: *jsonOut, Baseline: *baseline}
	if *cache && !*escape {
		loader, err := framework.NewLoader(cwd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-lint: %v\n", err)
			os.Exit(2)
		}
		opts.CacheDir = filepath.Join(loader.ModuleDir, ".lintcache")
	}
	if *escape {
		hints, err := loadEscapeHints(cwd, patterns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-lint: escape analysis: %v\n", err)
			os.Exit(2)
		}
		alloccheck.SetEscapeHints(hints)
	}

	out := os.Stdout
	if *writeBaseline != "" {
		f, err := os.Create(*writeBaseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-lint: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		out = f
		opts.JSON = true
		opts.Baseline = ""
	}

	n, err := framework.LintOpts(out, cwd, analyzers, patterns, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bluefi-lint: %v\n", err)
		os.Exit(2)
	}
	if *writeBaseline != "" {
		fmt.Fprintf(os.Stderr, "bluefi-lint: wrote %d finding(s) to %s\n", n, *writeBaseline)
		return
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "bluefi-lint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// escapeNoteRe matches one compiler escape note. go build prints file
// positions relative to the directory it runs in (the module root
// here).
var escapeNoteRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: .* does not escape$`)

// loadEscapeHints compiles the module with -gcflags=-m and collects the
// "does not escape" notes per absolute file and line. The build output
// itself is advisory: a failing build surfaces through the loader with
// a better message, so only the notes are harvested here.
func loadEscapeHints(dir string, patterns []string) (map[string]map[int]bool, error) {
	loader, err := framework.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	args := append([]string{"build", "-gcflags=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = loader.ModuleDir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	_ = cmd.Run()
	hints := make(map[string]map[int]bool)
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := escapeNoteRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(loader.ModuleDir, file)
		}
		line, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		if hints[file] == nil {
			hints[file] = make(map[int]bool)
		}
		hints[file][line] = true
	}
	return hints, nil
}
