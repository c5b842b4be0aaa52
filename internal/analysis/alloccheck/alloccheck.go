// Package alloccheck makes the zero-alloc hot path a compile-time
// contract: a function whose doc comment carries
//
//	//bluefi:allocfree
//
// must contain no allocation site, and neither may anything it calls —
// transitively through the module's call graph. The analyzer works
// conservatively from the AST plus go/types, so it over-approximates
// what the compiler's escape analysis would stack-allocate; the flip
// side is that a green annotation is a real guarantee, not a build-flag
// accident. The ROADMAP's allocation budget for the steady-state
// synthesis chain (core→dsp→gfsk→wifi) is enforced here instead of
// being discovered after the fact in benchmark snapshots.
//
// Allocation sites diagnosed inside an annotated function (or anything
// it reaches):
//
//   - make and new
//   - append (growth of the backing array cannot be ruled out
//     statically; annotated kernels write into caller-owned capacity
//     by index instead)
//   - slice and map composite literals, and &composite literals
//   - string concatenation and the allocating conversions
//     (string↔[]byte, string↔[]rune, string(rune))
//   - interface boxing at call sites, including variadic
//     ...interface{} calls like fmt.Sprintf
//   - function literals (closure capture) and method values
//   - go statements
//   - calls that cannot be proven allocation-free: indirect calls
//     through function values, dynamic dispatch through interfaces,
//     and calls out of the module (allowlist: math, math/bits,
//     math/cmplx — pure arithmetic, no allocation)
//
// panic call arguments are skipped: panics are the crash path, not the
// steady state, and several kernels carry fmt.Sprintf diagnostics in
// their must-not-happen branches.
//
// Module-internal callees are handled transitively: an annotated callee
// is trusted (its own package's pass verifies it); an unannotated one
// is summarized from its body, recursively, with cycles assumed clean.
//
// A deliberate exception carries `//bluefi:alloc-ok <reason>` on the
// offending line; the reason is mandatory.
package alloccheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"bluefi/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name:        "alloccheck",
	SuppressKey: "alloc-ok",
	Run:         run,
}

// allocfreeRe matches the annotation line inside a function's doc
// comment.
var allocfreeRe = regexp.MustCompile(`^//bluefi:allocfree\b`)

// calleeAllowlist names the non-module packages whose functions are
// trusted allocation-free: pure arithmetic over machine words.
var calleeAllowlist = map[string]bool{"math": true, "math/bits": true, "math/cmplx": true}

// A site is one allocation finding inside a function body.
type site struct {
	pos token.Pos
	msg string
}

type checker struct {
	pass   *framework.Pass
	module *framework.Module
	memo   map[string][]site // symbol key -> body summary
	active map[string]bool   // recursion stack, for cycle cutoff
}

func run(pass *framework.Pass) error {
	self := &framework.Package{
		Path:  pass.Pkg.Path(),
		Fset:  pass.Fset,
		Files: pass.Files,
		Types: pass.Pkg,
		Info:  pass.TypesInfo,
	}
	mod := pass.Module
	if mod == nil {
		mod = &framework.Module{Path: pass.Pkg.Path(), Pkgs: map[string]*framework.Package{self.Path: self}}
	}
	c := &checker{pass: pass, module: mod, memo: make(map[string][]site), active: make(map[string]bool)}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hasAllocfree(fd) {
				continue
			}
			if fd.Body == nil {
				pass.Reportf(fd.Pos(), "//bluefi:allocfree function %s has no Go body to verify", fd.Name.Name)
				continue
			}
			for _, s := range c.collect(self, fd) {
				pass.Reportf(s.pos, "%s", s.msg)
			}
		}
	}
	return nil
}

func hasAllocfree(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if allocfreeRe.MatchString(c.Text) {
			return true
		}
	}
	return false
}

// collect walks one function body and returns its allocation sites.
func (c *checker) collect(pkg *framework.Package, fd *ast.FuncDecl) []site {
	var sites []site
	w := &walker{c: c, pkg: pkg, add: func(s site) { sites = append(sites, s) }}
	w.calls = callFuns(fd.Body)
	ast.Inspect(fd.Body, w.visit)
	return sites
}

// callFuns records every expression used as the Fun of a call, so the
// walker can tell a method value (allocates a closure) from a method
// call (does not).
func callFuns(body ast.Node) map[ast.Expr]bool {
	funs := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			funs[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	return funs
}

// walker visits one function body. add receives every site found;
// handled suppresses double-reporting of composite literals already
// claimed by an enclosing &.
type walker struct {
	c       *checker
	pkg     *framework.Package
	add     func(site)
	calls   map[ast.Expr]bool
	handled map[ast.Node]bool
}

func (w *walker) visit(n ast.Node) bool {
	info := w.pkg.Info
	switch n := n.(type) {
	case *ast.CallExpr:
		return w.visitCall(n)
	case *ast.CompositeLit:
		if w.handled[n] {
			return true
		}
		switch info.Types[n].Type.Underlying().(type) {
		case *types.Slice:
			w.add(site{n.Pos(), "slice literal allocates its backing array"})
		case *types.Map:
			w.add(site{n.Pos(), "map literal allocates"})
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				if w.handled == nil {
					w.handled = make(map[ast.Node]bool)
				}
				w.handled[cl] = true
				w.add(site{n.Pos(), "address of composite literal allocates"})
			}
		}
	case *ast.FuncLit:
		w.add(site{n.Pos(), "function literal allocates a closure"})
		return false
	case *ast.GoStmt:
		w.add(site{n.Pos(), "go statement allocates a goroutine"})
		return false
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isString(info, n.X) {
			w.add(site{n.Pos(), "string concatenation allocates"})
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info, n.Lhs[0]) {
			w.add(site{n.Pos(), "string concatenation allocates"})
		}
	case *ast.SelectorExpr:
		// A method used as a value (not called) captures its receiver
		// in a closure. Method expressions (T.M) are plain functions.
		if w.calls[n] {
			return true
		}
		if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
			if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
				if tv, ok := info.Types[n.X]; !ok || !tv.IsType() {
					w.add(site{n.Pos(), "method value allocates a closure"})
				}
			}
		}
	}
	return true
}

func isString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (w *walker) visitCall(call *ast.CallExpr) bool {
	info := w.pkg.Info
	fun := ast.Unparen(call.Fun)

	// Conversion: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		w.checkConversion(call, tv.Type)
		return true
	}

	// Builtin.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				w.add(site{call.Pos(), "make allocates; hoist the buffer into caller-owned scratch"})
			case "new":
				w.add(site{call.Pos(), "new allocates"})
			case "append":
				w.add(site{call.Pos(), "append may grow its backing array; write into preallocated capacity by index"})
			case "panic":
				// Crash path: arguments (often fmt.Sprintf) never run in
				// the steady state.
				return false
			}
			return true
		}
	}

	fn := calleeFunc(info, call)
	sig, _ := info.Types[call.Fun].Type.Underlying().(*types.Signature)
	if sig != nil {
		w.checkArgs(call, sig)
	}
	switch {
	case fn == nil:
		w.add(site{call.Pos(), "indirect call through a function value cannot be proven allocation-free"})
	default:
		w.checkCallee(call, fn)
	}
	return true
}

// checkConversion flags the conversions that copy their operand into a
// fresh allocation.
func (w *walker) checkConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src, ok := w.pkg.Info.Types[call.Args[0]]
	if !ok || src.Type == nil {
		return
	}
	from, to := src.Type.Underlying(), target.Underlying()
	switch {
	case isStringType(to) && (isByteOrRuneSlice(from) || isIntegerType(from)):
		w.add(site{call.Pos(), fmt.Sprintf("conversion from %s to string allocates", src.Type)})
	case isByteOrRuneSlice(to) && isStringType(from):
		w.add(site{call.Pos(), fmt.Sprintf("conversion from string to %s allocates", target)})
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// checkArgs diagnoses interface boxing and variadic materialization at
// one call site.
func (w *walker) checkArgs(call *ast.CallExpr, sig *types.Signature) {
	info := w.pkg.Info
	params := sig.Params()
	fixed := params.Len()
	if sig.Variadic() {
		fixed--
		// f(xs...) forwards an existing slice; f(a, b) materializes one.
		if !call.Ellipsis.IsValid() && len(call.Args) > fixed {
			w.add(site{call.Args[fixed].Pos(), "variadic call allocates its argument slice"})
		}
	}
	for i, arg := range call.Args {
		if i >= fixed {
			break
		}
		pt := params.At(i).Type()
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() || types.IsInterface(at.Type) {
			continue
		}
		w.add(site{arg.Pos(), fmt.Sprintf("passing %s as %s boxes the value", at.Type, pt)})
	}
}

// checkCallee decides whether a resolved callee is trusted, summarized,
// or flagged.
func (w *walker) checkCallee(call *ast.CallExpr, fn *types.Func) {
	c := w.c
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type().Underlying()) {
			w.add(site{call.Pos(), fmt.Sprintf("dynamic call of %s through an interface cannot be proven allocation-free", fn.Name())})
			return
		}
	}
	if fn.Pkg() == nil {
		return // universe scope
	}
	path := fn.Pkg().Path()
	if calleeAllowlist[path] {
		return
	}
	if !c.inModule(path) {
		w.add(site{call.Pos(), fmt.Sprintf("call of %s.%s cannot be proven allocation-free (outside the module); wrap or avoid it", path, fn.Name())})
		return
	}
	target := c.module.Pkgs[path]
	if target == nil {
		w.add(site{call.Pos(), fmt.Sprintf("cannot find package %s to prove %s allocation-free", path, fn.Name())})
		return
	}
	fd := findDecl(target, fn)
	if fd == nil {
		w.add(site{call.Pos(), fmt.Sprintf("cannot find body of %s.%s to prove it allocation-free", path, fn.Name())})
		return
	}
	if hasAllocfree(fd) {
		return // trusted: verified by its own package's pass
	}
	if first := c.summarize(target, fd, symbolKey(fn)); first != nil {
		w.add(site{call.Pos(), fmt.Sprintf("call of %s.%s is not allocation-free: %s (at %s)",
			path, fn.Name(), first.msg, target.Fset.Position(first.pos))})
	}
}

func (c *checker) inModule(path string) bool {
	if c.module.Pkgs[path] != nil {
		return true
	}
	mod := c.module.Path
	return mod != "" && (path == mod || strings.HasPrefix(path, mod+"/"))
}

// summarize returns the first allocation site of an unannotated module
// function, memoized; cycles are assumed clean (any real site on the
// cycle is found from the first frame that reaches it).
func (c *checker) summarize(pkg *framework.Package, fd *ast.FuncDecl, key string) *site {
	if sites, ok := c.memo[key]; ok {
		if len(sites) == 0 {
			return nil
		}
		return &sites[0]
	}
	if c.active[key] {
		return nil
	}
	if fd.Body == nil {
		s := site{fd.Pos(), "has no Go body"}
		c.memo[key] = []site{s}
		return &s
	}
	c.active[key] = true
	sites := c.collect(pkg, fd)
	delete(c.active, key)
	c.memo[key] = sites
	if len(sites) == 0 {
		return nil
	}
	return &sites[0]
}

func symbolKey(fn *types.Func) string { return fn.FullName() }

// findDecl locates fn's declaration in target by name + receiver type
// name. Object identity cannot be used: the caller resolved fn against
// export data while target was type-checked from source.
func findDecl(target *framework.Package, fn *types.Func) *ast.FuncDecl {
	want := recvOf(fn)
	for _, f := range target.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn.Name() {
				continue
			}
			if declRecv(fd) == want {
				return fd
			}
		}
	}
	return nil
}

// recvOf returns the receiver's named-type name, or "" for a plain
// function.
func recvOf(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func declRecv(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// calleeFunc resolves a call to the *types.Func it invokes, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch callee := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[callee].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[callee.Sel].(*types.Func)
		return fn
	}
	return nil
}
