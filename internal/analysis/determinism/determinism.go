// Package determinism enforces the repo's bit-exactness contract: the
// synthesis pipeline (PSDU bytes → decodable GFSK waveform, paper
// §2.4–2.8) must be a pure function of its inputs, or the committed
// golden PSDU vectors and the parallel-equals-serial guarantees of the
// rehearsal search stop meaning anything.
//
// Two strictness tiers, selected by a package-level annotation:
//
//   - Strict — packages that carry `//bluefi:strict` in a comment
//     above their package clause (the deterministic synthesis chain:
//     internal/{core, wifi, dsp, gfsk, bits, viterbi, faults, scan}).
//     Any use of math/rand (even seeded), any wall-clock read
//     (time.Now/Since/Until), ranging over a map, and multi-case
//     select statements are diagnosed: none of those belong in a
//     deterministic transform. internal/faults is strict by contract,
//     not exempt like obs: the fault injector promises bit-identical
//     replay from a seed, so its decisions must come from counter
//     hashes, never from a clock or a shared rand source. The
//     annotation replaced a hand-edited path list in the analyzer
//     itself, which had to grow a new entry every time a PR added a
//     deterministic package; now the package opts in where its
//     contract is documented.
//
//   - Lax — every other package (channel/airtime/eval simulate noise,
//     commands print reports). Only genuinely nondeterministic sources
//     are diagnosed: wall-clock reads and the process-seeded global
//     math/rand functions (rand.Intn etc., and all of math/rand/v2's
//     package-level functions, which cannot be seeded at all).
//     Explicitly seeded generators — rand.New(rand.NewSource(seed)) —
//     are the sanctioned way to simulate noise and pass untouched.
//
// One package is exempt outright: internal/obs, the telemetry layer, IS
// the repo's measurement boundary. Spans read the wall clock by design,
// and every sanctioned timing probe of the strict packages lives behind
// obs.StartSpan rather than a local time.Now — so strict packages stay
// clock-free without per-line suppressions, and the clock reads
// concentrate where they are the point.
//
// Legitimate exceptions elsewhere (report timestamps, benchmark
// provenance) carry a `//bluefi:nondeterministic-ok <reason>` comment on
// or above the offending line; the reason is mandatory.
package determinism

import (
	"go/ast"
	"go/types"
	"regexp"

	"bluefi/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name:        "determinism",
	SuppressKey: "nondeterministic-ok",
	Run:         run,
}

// obsPkgRe matches the telemetry package, which is exempt from the
// wall-clock diagnostics entirely: timing is its purpose (see the
// package doc above).
var obsPkgRe = regexp.MustCompile(`(^|/)internal/obs$`)

// seededConstructors are the math/rand package-level functions that do
// not touch the global source.
var seededConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func run(pass *framework.Pass) error {
	if obsPkgRe.MatchString(pass.Pkg.Path()) {
		return nil
	}
	_, strict := framework.PackageAnnotation(pass.Files, "strict")
	for _, f := range pass.Files {
		if strict {
			for _, imp := range f.Imports {
				switch imp.Path.Value {
				case `"math/rand"`, `"math/rand/v2"`:
					pass.Reportf(imp.Pos(), "deterministic package %s imports %s; even seeded randomness has no place in the bit-exact synthesis path", pass.Pkg.Path(), imp.Path.Value)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n, strict)
			case *ast.RangeStmt:
				if strict {
					checkRange(pass, n)
				}
			case *ast.SelectStmt:
				if strict && len(n.Body.List) > 1 {
					pass.Reportf(n.Pos(), "select over %d cases resolves by scheduler choice; deterministic packages must not branch on goroutine scheduling", len(n.Body.List))
				}
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *framework.Pass, call *ast.CallExpr, strict bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "time.%s reads the wall clock; output depending on it is nondeterministic", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, _ := fn.Type().(*types.Signature)
		isMethod := sig != nil && sig.Recv() != nil
		switch {
		case strict:
			pass.Reportf(call.Pos(), "call of %s.%s in deterministic package; the synthesis path must not consume randomness", fn.Pkg().Path(), fn.Name())
		case !isMethod && !seededConstructors[fn.Name()]:
			pass.Reportf(call.Pos(), "%s.%s draws from the process-seeded global source; use rand.New(rand.NewSource(seed)) with a config-supplied seed", fn.Pkg().Path(), fn.Name())
		}
	}
}

func checkRange(pass *framework.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		pass.Reportf(rng.Pos(), "map iteration order is nondeterministic; iterate over sorted keys in deterministic packages")
	}
}

// calleeFunc resolves a call to the *types.Func it invokes, or nil for
// non-function calls (conversions, func-typed variables).
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	switch callee := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[callee].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[callee.Sel].(*types.Func)
		return fn
	}
	return nil
}
