// Package stdchecks holds the two std-style passes `go vet` does not
// cover for this codebase, on the repo's own analysis framework:
// atomicassign (vet's atomic pass misses the SwapInt32 form) and a
// basic nilness (vet does not run nilness). copylocks and loopclosure
// are left to `go vet ./...`, which `make verify` runs. Each pass is
// deliberately small: it covers the patterns that occur (or must never
// occur) in this codebase, not the full generality of the upstream
// passes.
package stdchecks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bluefi/internal/analysis/framework"
)

// AtomicAssign flags `x = atomic.AddT(&x, d)` and friends: the plain
// store racing with the atomic read-modify-write defeats the atomic
// operation entirely.
var AtomicAssign = &framework.Analyzer{
	Name: "atomicassign",
	Doc:  "flag direct assignment of a sync/atomic result back to its operand",
	Run:  runAtomicAssign,
}

func runAtomicAssign(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					continue
				}
				if !strings.HasPrefix(fn.Name(), "Add") && !strings.HasPrefix(fn.Name(), "Swap") &&
					!strings.HasPrefix(fn.Name(), "And") && !strings.HasPrefix(fn.Name(), "Or") {
					continue
				}
				addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
				if !ok || addr.Op != token.AND {
					continue
				}
				if sameOperand(pass, as.Lhs[i], addr.X) {
					pass.Reportf(as.Pos(), "direct assignment of atomic.%s result back to its operand defeats the atomic operation", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// sameOperand reports whether two simple expressions (ident or
// selector chains) refer to the same variable.
func sameOperand(pass *framework.Pass, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch ae := a.(type) {
	case *ast.Ident:
		be, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		ao := pass.TypesInfo.Uses[ae]
		return ao != nil && ao == pass.TypesInfo.Uses[be]
	case *ast.SelectorExpr:
		be, ok := b.(*ast.SelectorExpr)
		if !ok || ae.Sel.Name != be.Sel.Name {
			return false
		}
		return sameOperand(pass, ae.X, be.X)
	}
	return false
}
