// Package lockcheck enforces annotation-driven lock discipline: a
// struct field whose declaration carries a `// guarded by <mu>` comment
// may only be read or written in functions that demonstrably hold that
// mutex. The a2dp scheduler and the root Pool rely on this discipline —
// rehearsal-gated Reslot calls race from several goroutines — and before
// this analyzer only convention enforced it.
//
// A function "holds" the annotated mutex when any of these is true:
//
//   - it calls <base>.<mu>.Lock() or <base>.<mu>.RLock() on the same
//     base object before the access (the usual method prologue
//     `s.mu.Lock(); defer s.mu.Unlock()`);
//   - its name ends in "Locked", the repo convention for helpers whose
//     contract is "caller holds the mutex";
//   - the accessed value was constructed inside the function itself via
//     a composite literal (constructors initialise fields before the
//     value is shared, no lock needed).
//
// The annotation is validated: naming a mutex that does not exist in
// the same struct, or a field that is not sync.Mutex/sync.RWMutex, is
// itself a diagnostic. Intentional lock-free access (e.g. an atomic
// fast path) can be silenced with `//bluefi:lock-ok <reason>`.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"bluefi/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name:        "lockcheck",
	SuppressKey: "lock-ok",
	Run:         run,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// guard records one annotated field.
type guard struct {
	muName     string
	structName string
}

func run(pass *framework.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, fd, guards)
			}
		}
	}
	return nil
}

// collectGuards scans struct declarations for `guarded by` annotations
// and validates that the named mutex is a sibling field of an
// appropriate type.
func collectGuards(pass *framework.Pass) map[types.Object]guard {
	guards := map[types.Object]guard{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				muName, ok := guardAnnotation(field)
				if !ok {
					continue
				}
				if !hasMutexField(pass, st, muName) {
					pass.Reportf(field.Pos(), "field is `guarded by %s` but struct %s has no sync.Mutex/sync.RWMutex field named %s", muName, ts.Name.Name, muName)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = guard{muName: muName, structName: ts.Name.Name}
					}
				}
			}
			return true
		})
	}
	return guards
}

func guardAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

func hasMutexField(pass *framework.Pass, st *ast.StructType, muName string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != muName {
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				return false
			}
			return isMutexType(obj.Type())
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl, guards map[types.Object]guard) {
	lockedHelper := strings.HasSuffix(fd.Name.Name, "Locked")
	constructed := constructedLocals(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return true
		}
		g, guarded := guards[selection.Obj()]
		if !guarded {
			return true
		}
		base := baseObject(pass, sel.X)
		if base == nil {
			return true
		}
		switch {
		case lockedHelper:
		case constructed[base]:
		case locksBefore(pass, fd.Body, base, g.muName, sel.Pos()):
		default:
			pass.Reportf(sel.Pos(), "%s.%s is guarded by %s but %s accesses it without holding the lock (lock %s.%s first, or rename the helper *Locked)", g.structName, selection.Obj().Name(), g.muName, fd.Name.Name, base.Name(), g.muName)
		}
		return true
	})
}

// constructedLocals returns the local variables that this function
// initialises itself from a composite literal — unshared values whose
// fields may be touched lock-free.
func constructedLocals(pass *framework.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			expr := ast.Unparen(rhs)
			if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.AND {
				expr = u.X
			}
			if _, ok := expr.(*ast.CompositeLit); !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// locksBefore reports whether base.mu.Lock() or base.mu.RLock() is
// called anywhere in body before pos. Position order approximates
// dominance; that is exact for the repo's `s.mu.Lock(); defer
// s.mu.Unlock()` prologue convention.
func locksBefore(pass *framework.Pass, body *ast.BlockStmt, base types.Object, muName string, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		method, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (method.Sel.Name != "Lock" && method.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := ast.Unparen(method.X).(*ast.SelectorExpr)
		if !ok || muSel.Sel.Name != muName {
			return true
		}
		if baseObject(pass, muSel.X) == base {
			found = true
		}
		return true
	})
	return found
}

// baseObject unwraps a selector chain to its root identifier's object:
// the `s` of s.clk, (*s).clk or s.inner.clk.
func baseObject(pass *framework.Pass, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.Ident:
			return pass.TypesInfo.Uses[e]
		default:
			return nil
		}
	}
}
