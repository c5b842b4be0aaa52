// Package framework is a self-contained miniature of
// golang.org/x/tools/go/analysis, built only on the standard library so
// the repo's custom linters work in hermetic build environments (no
// module proxy). It mirrors the x/tools shape — an Analyzer owns a Run
// function over a typed Pass and reports position-tagged Diagnostics —
// but drops facts, dependencies between analyzers and SSA: the BlueFi
// invariants (determinism, pool balance, lock discipline, scratch
// aliasing) are all checkable from the AST plus go/types.
//
// Suppression: an analyzer that sets SuppressKey honours line-scoped
// allowlist comments of the form
//
//	//bluefi:<key> <reason>
//
// on the diagnosed line or the line directly above it. The reason is
// mandatory — a bare suppression does not suppress and additionally
// earns its own diagnostic — so every exception to an invariant is
// forced to document itself.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// SuppressKey, when nonempty, enables `//bluefi:<key> <reason>`
	// line suppression for this analyzer's diagnostics.
	SuppressKey string
	// Run inspects the package in pass and reports diagnostics.
	Run func(pass *Pass) error
}

// A Module is the whole-module context shared by every pass of one lint
// run: all type-checked packages keyed by import path. Cross-package
// analyzers (alloccheck's transitive call-graph summaries) use it to
// find function bodies in other module packages; per-package analyzers
// ignore it. Pkgs only holds packages loaded from source — stdlib and
// other export-data-only dependencies are absent by design.
type Module struct {
	// Path is the module path from go.mod (e.g. "bluefi").
	Path string
	// Dir is the directory holding go.mod.
	Dir string
	// Pkgs maps import path to the loaded package.
	Pkgs map[string]*Package
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is the whole-module context, or nil when the driver runs
	// a single package in isolation.
	Module *Module

	diags       *[]Diagnostic
	suppression map[string]map[int]*suppressComment // filename -> line
}

// A Diagnostic is one finding, tagged with the analyzer that made it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

type suppressComment struct {
	key      string
	reason   string
	pos      token.Pos
	used     bool
	reported bool // reason-missing diagnostic already emitted
}

// suppressRe matches one //bluefi:<key> comment. A trailing `// want ...`
// clause (the analysistest expectation syntax) is not part of the reason.
var suppressRe = regexp.MustCompile(`//bluefi:([a-z-]+)\b(.*)$`)

// indexSuppressions builds the filename -> line -> comment map for one
// package. Every comment line is scanned, so suppressions inside larger
// comment groups work too.
func indexSuppressions(fset *token.FileSet, files []*ast.File) map[string]map[int]*suppressComment {
	idx := make(map[string]map[int]*suppressComment)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppressRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				reason := m[2]
				if i := strings.Index(reason, "// want"); i >= 0 {
					reason = reason[:i]
				}
				pos := fset.Position(c.Slash)
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*suppressComment)
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = &suppressComment{
					key:    m[1],
					reason: strings.TrimSpace(reason),
					pos:    c.Slash,
				}
			}
		}
	}
	return idx
}

// Reportf records a diagnostic at pos unless a reasoned suppression
// comment covers the line. A suppression without a reason does not
// suppress; it earns a companion diagnostic instead.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if key := p.Analyzer.SuppressKey; key != "" {
		if sc := p.suppressionFor(position); sc != nil && sc.key == key {
			sc.used = true
			if sc.reason != "" {
				return
			}
			if !sc.reported {
				sc.reported = true
				*p.diags = append(*p.diags, Diagnostic{p.Fset.Position(sc.pos), p.Analyzer.Name,
					fmt.Sprintf("suppression //bluefi:%s needs a reason", key)})
			}
			// Fall through: a reasonless suppression suppresses nothing.
		}
	}
	*p.diags = append(*p.diags, Diagnostic{position, p.Analyzer.Name, fmt.Sprintf(format, args...)})
}

func (p *Pass) suppressionFor(pos token.Position) *suppressComment {
	byLine := p.suppression[pos.Filename]
	if byLine == nil {
		return nil
	}
	if sc := byLine[pos.Line]; sc != nil {
		return sc
	}
	return byLine[pos.Line-1]
}

// Run applies the analyzers to one loaded package and returns the
// diagnostics sorted by position. mod may be nil for single-package
// runs; cross-package analyzers then see only the pass's own files.
func Run(mod *Module, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	idx := indexSuppressions(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			TypesInfo:   pkg.Info,
			Module:      mod,
			diags:       &diags,
			suppression: idx,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	// Order by file, line, column, analyzer: the stable order the
	// driver prints.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// PackageAnnotation scans the files' package doc comments (and any
// comment group directly above the package clause) for a
// `//bluefi:<key> <reason>` line and returns the trimmed reason. The
// second result distinguishes an absent annotation from a reasonless
// one. Package-level annotations (like //bluefi:strict) declare a
// contract for the whole package, as opposed to the line-scoped
// suppressions Reportf honours.
func PackageAnnotation(files []*ast.File, key string) (reason string, ok bool) {
	for _, f := range files {
		for _, cg := range f.Comments {
			// Only comment groups that end before the package clause can
			// be package-level: annotations inside function bodies must
			// not promote the whole package.
			if cg.End() >= f.Package {
				continue
			}
			for _, c := range cg.List {
				// Directive position: the annotation must BE the comment
				// (//bluefi:... at column 0 of the comment text), so prose
				// that merely mentions an annotation does not activate it.
				if !strings.HasPrefix(c.Text, "//bluefi:") {
					continue
				}
				m := suppressRe.FindStringSubmatch(c.Text)
				if m == nil || m[1] != key {
					continue
				}
				return strings.TrimSpace(m[2]), true
			}
		}
	}
	return "", false
}
