// Package obsnames enforces the DESIGN §8 telemetry naming scheme at
// every registration site, so the metric namespace stays greppable and
// the Prometheus export stays well-formed as instrumentation spreads:
//
//   - Metric names match bluefi_<subsystem>_<noun...>[_<unit>] — all
//     lowercase [a-z0-9_], at least three segments, compile-time
//     constant. For code in internal/<pkg>, the subsystem segment must
//     equal <pkg> (root-package and cmd registrations pick their own).
//   - Counters end in _total; gauges must NOT end in _total (they are
//     levels, not monotone streams); histograms end in a recognized
//     unit suffix (seconds, nanoseconds, milliseconds, bytes, bits,
//     dbm, db, hz, ratio).
//   - Label keys are compile-time constants and one metric carries at
//     most 4 labels — the cardinality ceiling that keeps the bounded
//     trace ring and the text export small. Pass-through `labels...`
//     forwarding is left to the defining site.
//   - Span names are dotted lowercase paths (core.synth, fec.invert)
//     with at least two segments.
//
// Registration sites are recognized by type, not by import spelling:
// Counter/Gauge/Histogram methods on the internal/obs Registry and the
// internal/obs StartSpan function.
//
// A deliberate exception carries `//bluefi:obsname-ok <reason>` on the
// line; the reason is mandatory.
package obsnames

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"bluefi/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name:        "obsnames",
	SuppressKey: "obsname-ok",
	Run:         run,
}

// obsPkgRe matches the telemetry package by path suffix, so fixtures
// with a fake internal/obs get the same treatment as the real one.
var obsPkgRe = regexp.MustCompile(`(^|/)internal/obs$`)

// subsystemRe extracts the package's expected subsystem segment.
var subsystemRe = regexp.MustCompile(`(^|/)internal/([a-z0-9]+)$`)

var (
	metricRe = regexp.MustCompile(`^bluefi(_[a-z0-9]+){2,}$`)
	spanRe   = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*)+$`)
)

// histUnits are the unit suffixes a histogram name may end with.
var histUnits = []string{"seconds", "nanoseconds", "milliseconds", "bytes", "bits", "dbm", "db", "hz", "ratio"}

// maxLabels is the per-metric label-cardinality ceiling.
const maxLabels = 4

func run(pass *framework.Pass) error {
	if obsPkgRe.MatchString(pass.Pkg.Path()) {
		return nil // the registry's own implementation and tests
	}
	subsystem := ""
	if m := subsystemRe.FindStringSubmatch(pass.Pkg.Path()); m != nil {
		subsystem = m[2]
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCall(pass, subsystem, call)
			return true
		})
	}
	return nil
}

func checkCall(pass *framework.Pass, subsystem string, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !obsPkgRe.MatchString(fn.Pkg().Path()) {
		return
	}
	switch fn.Name() {
	case "Counter", "Gauge", "Histogram":
		if !isRegistryMethod(fn) || len(call.Args) == 0 {
			return
		}
		checkMetric(pass, subsystem, fn.Name(), call)
	case "StartSpan":
		if len(call.Args) < 2 {
			return
		}
		checkSpan(pass, call.Args[1])
	}
}

func isRegistryMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil
}

func checkMetric(pass *framework.Pass, subsystem, kind string, call *ast.CallExpr) {
	nameArg := call.Args[0]
	name, ok := constString(pass, nameArg)
	if !ok {
		pass.Reportf(nameArg.Pos(), "%s name must be a compile-time constant so the metric namespace is greppable", kind)
		return
	}
	if !metricRe.MatchString(name) {
		pass.Reportf(nameArg.Pos(), "metric name %q does not match bluefi_<subsystem>_<noun>[_<unit>] (lowercase [a-z0-9_], ≥3 segments)", name)
		return
	}
	if subsystem != "" {
		if seg := strings.SplitN(name, "_", 3)[1]; seg != subsystem {
			pass.Reportf(nameArg.Pos(), "metric name %q registered in internal/%s must use subsystem segment %q, not %q", name, subsystem, subsystem, seg)
		}
	}
	switch kind {
	case "Counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(nameArg.Pos(), "counter %q must end in _total", name)
		}
	case "Gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(nameArg.Pos(), "gauge %q must not end in _total; _total marks monotone counters", name)
		}
	case "Histogram":
		if !hasUnitSuffix(name) {
			pass.Reportf(nameArg.Pos(), "histogram %q must end in a unit suffix (%s)", name, strings.Join(histUnits, ", "))
		}
	}
	checkLabels(pass, kind, call)
}

func hasUnitSuffix(name string) bool {
	for _, u := range histUnits {
		if strings.HasSuffix(name, "_"+u) {
			return true
		}
	}
	return false
}

// checkLabels validates the variadic Label arguments: constant keys,
// bounded count. Counter/Gauge labels start at arg 2 (name, help),
// Histogram at arg 3 (name, help, bounds). A `labels...` pass-through
// is skipped — the forwarding site cannot see the keys.
func checkLabels(pass *framework.Pass, kind string, call *ast.CallExpr) {
	start := 2
	if kind == "Histogram" {
		start = 3
	}
	if call.Ellipsis.IsValid() || len(call.Args) <= start {
		return
	}
	labels := call.Args[start:]
	if len(labels) > maxLabels {
		pass.Reportf(labels[maxLabels].Pos(), "%d labels on one metric exceeds the cardinality ceiling of %d", len(labels), maxLabels)
	}
	for _, l := range labels {
		lc, ok := ast.Unparen(l).(*ast.CallExpr)
		if !ok || len(lc.Args) < 1 {
			continue
		}
		if fn, ok := calleeFunc(pass, lc); !ok || fn.Name() != "L" || fn.Pkg() == nil || !obsPkgRe.MatchString(fn.Pkg().Path()) {
			continue
		}
		if _, ok := constString(pass, lc.Args[0]); !ok {
			pass.Reportf(lc.Args[0].Pos(), "label key must be a compile-time constant; dynamic keys explode metric cardinality")
		}
	}
}

func checkSpan(pass *framework.Pass, nameArg ast.Expr) {
	name, ok := constString(pass, nameArg)
	if !ok {
		pass.Reportf(nameArg.Pos(), "span name must be a compile-time constant so the trace taxonomy is greppable")
		return
	}
	if !spanRe.MatchString(name) {
		pass.Reportf(nameArg.Pos(), "span name %q does not match the dotted lowercase taxonomy (<pkg>.<op>, e.g. core.synth)", name)
	}
}

func constString(pass *framework.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func calleeFunc(pass *framework.Pass, call *ast.CallExpr) (*types.Func, bool) {
	switch callee := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, ok := pass.TypesInfo.Uses[callee].(*types.Func)
		return fn, ok
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[callee.Sel].(*types.Func)
		return fn, ok
	}
	return nil, false
}
