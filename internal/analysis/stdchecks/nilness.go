// Package stdchecks holds a basic nilness pass on the repo's own
// analysis framework, because `go vet` does not run nilness: it flags a
// dereference, index or call of a value inside its own `x == nil`
// branch. The other
// std-style checks (atomic, copylocks, loopclosure) are left to
// `go vet ./...`, which `make verify` runs. The pass is deliberately
// small: it covers the patterns that occur (or must never occur) in
// this codebase, not the full generality of the upstream pass.
package stdchecks

import (
	"go/ast"
	"go/token"
	"go/types"

	"bluefi/internal/analysis/framework"
)

// Nilness is the basic syntactic core of vet's nilness pass: inside the
// branch where a pointer, slice, map or function value is known to be
// nil (`if x == nil { ... }` or the else of `!= nil`), dereferencing,
// indexing or calling that value panics. Branches that reassign the
// variable are skipped rather than modelled.
var Nilness = &framework.Analyzer{
	Name: "nilness",
	Run:  runNilness,
}

func runNilness(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch {
			case isNil(pass, cond.Y):
				id, _ = ast.Unparen(cond.X).(*ast.Ident)
			case isNil(pass, cond.X):
				id, _ = ast.Unparen(cond.Y).(*ast.Ident)
			}
			if id == nil {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || !nilable(obj.Type()) {
				return true
			}
			var nilBranch ast.Stmt
			switch cond.Op {
			case token.EQL:
				nilBranch = ifs.Body
			case token.NEQ:
				nilBranch = ifs.Else
			}
			if nilBranch == nil {
				return true
			}
			checkNilBranch(pass, nilBranch, obj, id.Name)
			return true
		})
	}
	return nil
}

func isNil(pass *framework.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(expr)]
	return ok && tv.IsNil()
}

func nilable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Signature, *types.Chan:
		return true
	}
	return false
}

func checkNilBranch(pass *framework.Pass, branch ast.Stmt, obj types.Object, name string) {
	reassigned := false
	ast.Inspect(branch, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					reassigned = true
				}
			}
		}
		return true
	})
	if reassigned {
		return
	}
	ast.Inspect(branch, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Field selection through a nil pointer panics; calling a
			// method with a pointer receiver on nil is legal Go.
			if usesObj(pass, n.X, obj) && pass.TypesInfo.Selections[n] != nil &&
				pass.TypesInfo.Selections[n].Kind() == types.FieldVal {
				pass.Reportf(n.Pos(), "%s is nil on this branch; selecting %s.%s panics", name, name, n.Sel.Name)
			}
		case *ast.IndexExpr:
			// Indexing a nil slice panics; reading a nil map is legal.
			if usesObj(pass, n.X, obj) {
				if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
					pass.Reportf(n.Pos(), "%s is nil on this branch; indexing it panics", name)
				}
			}
		case *ast.StarExpr:
			if usesObj(pass, n.X, obj) {
				pass.Reportf(n.Pos(), "%s is nil on this branch; dereferencing it panics", name)
			}
		case *ast.CallExpr:
			if usesObj(pass, n.Fun, obj) {
				pass.Reportf(n.Pos(), "%s is nil on this branch; calling it panics", name)
			}
		}
		return true
	})
}

func usesObj(pass *framework.Pass, expr ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}
