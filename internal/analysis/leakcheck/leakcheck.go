// Package leakcheck requires every goroutine launch to have a provable
// shutdown edge. The chaos tier catches leaked goroutines dynamically
// (runtime.NumGoroutine around the acceptance storm), but only on the
// paths the storm happens to exercise; this analyzer makes the
// fire-and-forget pattern a lint failure everywhere.
//
// For each `go` statement the launched body is resolved — a function
// literal directly, or a same-package function/method declaration one
// level deep — and judged:
//
//   - A body with no loop terminates on its own: fine.
//   - Bounded loops (a for with a condition, or range over anything
//     but a channel) terminate: fine.
//   - range over a channel has the canonical close-channel shutdown
//     edge: fine.
//   - An unconditional `for {}` must contain an exit that leaves the
//     function or the loop: a return, or a break binding to that loop
//     (typically the `case <-ctx.Done(): return` arm of a select, or a
//     sentinel check like the pool worker's nil-job pop).
//
// Launches the analyzer cannot see into — calls through function
// values, methods of other packages, dynamic dispatch — are flagged:
// the shutdown contract must be provable where the goroutine starts.
//
// A launch whose lifetime is genuinely the process's (a serve loop)
// carries `//bluefi:goroutine <reason>` on the go statement's line; the
// reason is mandatory.
package leakcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"bluefi/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name:        "leakcheck",
	SuppressKey: "goroutine",
	Run:         run,
}

func run(pass *framework.Pass) error {
	decls := localDecls(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkLaunch(pass, decls, g)
			return true
		})
	}
	return nil
}

// localDecls maps this package's function objects to their
// declarations, so `go p.worker(s)` resolves to the worker body.
func localDecls(pass *framework.Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	return decls
}

func checkLaunch(pass *framework.Pass, decls map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) {
	var body *ast.BlockStmt
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		fn := calleeFunc(pass, g.Call)
		if fn == nil {
			pass.Reportf(g.Pos(), "goroutine launched through a function value; shutdown cannot be proven at the launch site")
			return
		}
		fd := decls[fn]
		if fd == nil || fd.Body == nil {
			pass.Reportf(g.Pos(), "goroutine body %s is outside this package; shutdown cannot be proven at the launch site", fn.Name())
			return
		}
		body = fd.Body
	}
	checkBody(pass, g, body)
}

// checkBody flags every unbounded loop in the goroutine body (nested
// function literals excluded — they run in whoever calls them, not in
// this goroutine's frame).
func checkBody(pass *framework.Pass, g *ast.GoStmt, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			// range over a channel ends when the channel is closed —
			// that IS the shutdown edge; every other range is bounded.
			return true
		case *ast.ForStmt:
			if n.Cond != nil {
				return true // bounded by its condition
			}
			if !hasExit(n) {
				pass.Reportf(g.Pos(), "goroutine loops forever with no shutdown edge (for {} at line %d needs a return, a break, or a ctx.Done/close-channel select arm)",
					pass.Fset.Position(n.Pos()).Line)
			}
		}
		return true
	})
}

// hasExit reports whether the unconditional loop contains a statement
// that leaves it: a return, or a break binding to this loop (unlabeled
// breaks inside nested for/range/select/switch bind to those instead).
func hasExit(loop *ast.ForStmt) bool {
	return blockExits(loop.Body, true)
}

func blockExits(n ast.Node, breakBindsHere bool) bool {
	exits := false
	ast.Inspect(n, func(x ast.Node) bool {
		if exits {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exits = true
			return false
		case *ast.BranchStmt:
			// A labeled break/goto is assumed to leave the loop; an
			// unlabeled break only counts where it still binds to it.
			if x.Label != nil || (breakBindsHere && x.Tok == token.BREAK) {
				exits = true
				return false
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			if x == n {
				return true
			}
			// Unlabeled breaks inside rebind; returns still exit.
			if blockExits(x, false) {
				exits = true
			}
			return false
		}
		return true
	})
	return exits
}

// calleeFunc resolves the launched call to a *types.Func, or nil for
// function values.
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
