// bluefi-lint is the repo's multichecker: seven BlueFi-specific
// analyzers (determinism, poolbalance, lockcheck, scratchalias,
// alloccheck, leakcheck, obsnames) plus the nilness pass `go vet` does
// not run, in one binary invocation. The atomic, copylocks and
// loopclosure checks come from `go vet ./...`.
//
// Usage:
//
//	bluefi-lint [packages]
//
// Packages default to ./... relative to the enclosing module. Every
// analyzer runs and every finding is printed. The exit status is 1 on
// any finding and 2 when the packages cannot be loaded, so `make lint`
// gates CI. The one way to accept a finding is a reasoned
// `//bluefi:<key> <reason>` comment on its line.
//
// The framework is self-contained (no golang.org/x/tools dependency):
// see internal/analysis/framework. Invariant annotations understood by
// the analyzers are documented in DESIGN.md §7 and §11.
package main

import (
	"flag"
	"fmt"
	"os"

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
	stdchecks.Nilness,
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bluefi-lint [packages]")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bluefi-lint: %v\n", err)
		os.Exit(2)
	}
	n, err := framework.Lint(os.Stdout, cwd, all, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bluefi-lint: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "bluefi-lint: %d finding(s)\n", n)
		os.Exit(1)
	}
}
