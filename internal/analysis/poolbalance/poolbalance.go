// Package poolbalance checks that every buffer drawn from the
// internal/dsp size-bucketed complex pool (GetComplex) is returned
// exactly once (PutComplex) and never outlives its function. The pool is
// what keeps parallel synthesis allocation-flat (one rehearsal candidate
// runs a full synth+demod pass; a Pool of synthesizers multiplies that),
// so a leaked Get is a silent throughput regression and an escaped
// buffer is a data race in waiting — the pool will hand the same backing
// array to another goroutine.
//
// The check is flow-sensitive in the ways that matter for this
// codebase without needing SSA:
//
//   - a Get whose result is discarded leaks immediately;
//   - a Get must have a matching Put on the same variable in the same
//     function;
//   - a non-deferred Put with a return statement between the Get and
//     the Put leaks on the early path — use defer;
//   - a pooled buffer must not escape: returning it, storing it into a
//     struct field, index, package-level variable, composite literal,
//     or appending it into a longer-lived slice all alias pool-owned
//     memory past the release point.
//
// Helper functions that intentionally transfer ownership can silence a
// finding with `//bluefi:pool-ok <reason>`.
package poolbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bluefi/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name:        "poolbalance",
	SuppressKey: "pool-ok",
	Run:         run,
}

// dspPath matches the pool-owning package: the real internal/dsp and
// the fixture stub of the same import path shape.
func isDSPPath(path string) bool {
	return path == "bluefi/internal/dsp" || strings.HasSuffix(path, "/internal/dsp")
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// acquire is one tracked Get call result.
type acquire struct {
	obj     types.Object // the variable holding the buffer
	pos     token.Pos
	puts    []put
	escapes bool
}

type put struct {
	pos      token.Pos
	deferred bool
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	var acquires []*acquire
	byObj := map[types.Object]*acquire{}

	// Pass 1: find acquires.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isPoolCall(pass, call, "GetComplex") {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				pass.Reportf(call.Pos(), "result of dsp.GetComplex is discarded; the buffer can never be returned to the pool")
				return true
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				return true
			}
			a := &acquire{obj: obj, pos: call.Pos()}
			acquires = append(acquires, a)
			byObj[obj] = a
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if isPoolCall(pass, call, "GetComplex") {
					pass.Reportf(call.Pos(), "result of dsp.GetComplex is discarded; the buffer can never be returned to the pool")
				}
			}
		}
		return true
	})
	if len(acquires) == 0 {
		return
	}

	// Pass 2: find puts, escapes and intervening returns.
	var returnPositions []token.Pos
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				// Both `defer dsp.Put(v)` and `defer func() { ... }()`.
				walk(n.Call.Fun, true)
				for _, arg := range n.Call.Args {
					walk(arg, true)
				}
				if isPoolCall(pass, n.Call, "PutComplex") {
					recordPut(pass, byObj, n.Call, true)
				}
				return false
			case *ast.CallExpr:
				if isPoolCall(pass, n, "PutComplex") {
					recordPut(pass, byObj, n, inDefer)
					return true
				}
				checkCallEscapes(pass, byObj, n)
			case *ast.ReturnStmt:
				if !inDefer {
					returnPositions = append(returnPositions, n.Pos())
				}
				for _, res := range n.Results {
					if a := pooledOperand(pass, byObj, res); a != nil {
						a.escapes = true
						pass.Reportf(n.Pos(), "pooled buffer %s escapes via return; the pool may hand its backing array to another goroutine after release", objName(a))
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					a := pooledOperand(pass, byObj, rhs)
					if a == nil || i >= len(n.Lhs) {
						continue
					}
					switch lhs := n.Lhs[i].(type) {
					case *ast.SelectorExpr:
						a.escapes = true
						pass.Reportf(n.Pos(), "pooled buffer %s is stored into field %s; it must not outlive the function that acquired it", objName(a), lhs.Sel.Name)
					case *ast.IndexExpr:
						a.escapes = true
						pass.Reportf(n.Pos(), "pooled buffer %s is stored into an element of a longer-lived container", objName(a))
					case *ast.Ident:
						if obj := pass.TypesInfo.Uses[lhs]; obj != nil {
							if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
								a.escapes = true
								pass.Reportf(n.Pos(), "pooled buffer %s is stored into package-level variable %s", objName(a), lhs.Name)
							}
						}
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					expr := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						expr = kv.Value
					}
					if a := pooledOperand(pass, byObj, expr); a != nil {
						a.escapes = true
						pass.Reportf(expr.Pos(), "pooled buffer %s is captured by a composite literal; it must not outlive the function that acquired it", objName(a))
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, false)

	// Verdicts.
	for _, a := range acquires {
		for _, p := range a.puts {
			if !p.deferred {
				for _, rp := range returnPositions {
					if rp > a.pos && rp < p.pos {
						pass.Reportf(rp, "return between dsp.GetComplex and its Put leaks buffer %s on this path; release with defer", objName(a))
					}
				}
			}
		}
		if len(a.puts) == 0 && !a.escapes {
			pass.Reportf(a.pos, "dsp.GetComplex buffer %s is never returned with dsp.PutComplex in this function", objName(a))
		}
	}
}

func recordPut(pass *framework.Pass, byObj map[types.Object]*acquire, call *ast.CallExpr, deferred bool) {
	if len(call.Args) != 1 {
		return
	}
	a := pooledOperand(pass, byObj, call.Args[0])
	if a == nil {
		return
	}
	a.puts = append(a.puts, put{pos: call.Pos(), deferred: deferred})
}

// checkCallEscapes flags append(dst, v) where v is a pooled buffer
// appended as an element of a longer-lived slice-of-slices.
func checkCallEscapes(pass *framework.Pass, byObj map[types.Object]*acquire, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	for _, arg := range call.Args[1:] {
		if a := pooledOperand(pass, byObj, arg); a != nil && !call.Ellipsis.IsValid() {
			a.escapes = true
			pass.Reportf(arg.Pos(), "pooled buffer %s is appended into a longer-lived slice", objName(a))
		}
	}
}

// pooledOperand resolves expr (possibly parenthesised or sliced) to a
// tracked pooled-buffer variable.
func pooledOperand(pass *framework.Pass, byObj map[types.Object]*acquire, expr ast.Expr) *acquire {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[e]; obj != nil {
				return byObj[obj]
			}
			return nil
		default:
			return nil
		}
	}
}

// isPoolCall reports whether call invokes <dsp>.<name>.
func isPoolCall(pass *framework.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && isDSPPath(fn.Pkg().Path()) && fn.Name() == name
}

func objName(a *acquire) string { return a.obj.Name() }
