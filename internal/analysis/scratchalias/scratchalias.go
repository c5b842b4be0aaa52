// Package scratchalias keeps reusable scratch memory from leaking
// across the API boundary of the synthesis packages. internal/core and
// internal/dsp hold per-object scratch (fitSymbols buffers, the in-band
// comparison buffers, FFT work areas, the pilot-waveform cache) that the
// next call overwrites, so an exported function that returns a
// reference to it hands the caller memory that will change under its
// feet — exactly the class of bug the golden-vector tests cannot catch
// because single-threaded runs never observe it.
//
// Diagnosed, in exported functions of packages whose import path ends
// in internal/core or internal/dsp:
//
//   - returning a receiver slice/map field (directly or re-sliced);
//   - returning a package-level slice variable.
//
// Functions that intentionally expose internal state (read-only tables
// documented as such) can silence a finding with
// `//bluefi:alias-ok <reason>`.
package scratchalias

import (
	"go/ast"
	"go/types"
	"regexp"

	"bluefi/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name:        "scratchalias",
	SuppressKey: "alias-ok",
	Run:         run,
}

var scratchPkgRe = regexp.MustCompile(`(^|/)internal/(core|dsp)$`)

func run(pass *framework.Pass) error {
	if !scratchPkgRe.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkExported(pass, fd)
		}
	}
	return nil
}

func checkExported(pass *framework.Pass, fd *ast.FuncDecl) {
	recv := receiverObject(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure's returns are not the exported function's.
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				checkReturned(pass, fd, recv, res)
			}
		}
		return true
	})
}

func checkReturned(pass *framework.Pass, fd *ast.FuncDecl, recv types.Object, res ast.Expr) {
	expr := res
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.SliceExpr:
			expr = e.X
			continue
		}
		break
	}
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		selection := pass.TypesInfo.Selections[e]
		if selection == nil || selection.Kind() != types.FieldVal {
			return
		}
		if recv == nil || baseObject(pass, e.X) != recv || !isRefType(selection.Obj().Type()) {
			return
		}
		pass.Reportf(res.Pos(), "exported %s returns receiver scratch field %s; the next call overwrites the caller's view — return a copy", fd.Name.Name, selection.Obj().Name())
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		v, ok := obj.(*types.Var)
		if !ok || v.Parent() != pass.Pkg.Scope() || !isRefType(v.Type()) {
			return
		}
		pass.Reportf(res.Pos(), "exported %s returns package-level buffer %s; shared scratch must not cross the API boundary — return a copy", fd.Name.Name, e.Name)
	}
}

func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

func receiverObject(pass *framework.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

func baseObject(pass *framework.Pass, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.Ident:
			return pass.TypesInfo.Uses[e]
		default:
			return nil
		}
	}
}
