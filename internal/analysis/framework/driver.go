package framework

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Lint loads every module package matched by patterns, applies the
// analyzers, prints diagnostics to w and returns the diagnostic count.
// This is the whole multichecker: cmd/bluefi-lint is a thin shim over
// it, and the repo-wide self-test calls it directly.
func Lint(w io.Writer, dir string, analyzers []*Analyzer, patterns []string) (int, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return 0, err
	}
	pkgs, err := loader.LoadPackages(patterns...)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, pkg := range pkgs {
		diags, err := Run(pkg, analyzers)
		if err != nil {
			return n, err
		}
		for _, d := range diags {
			// Module-relative, slash-separated paths keep the output
			// stable across checkouts.
			if rel, err := filepath.Rel(loader.ModuleDir, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = filepath.ToSlash(rel)
			}
			fmt.Fprintln(w, d)
		}
		n += len(diags)
	}
	return n, nil
}
