package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package loading without golang.org/x/tools/go/packages: the go command
// supplies compiled export data for every dependency (`go list -export
// -json -deps`), the stdlib gc importer consumes it through a lookup
// function, and only the packages under analysis are type-checked from
// source. This works fully offline — the only requirements are the go
// toolchain and a buildable module, both of which the tier-1 gate
// already demands.

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader type-checks module packages (and, for analysistest, fixture
// packages rooted at SrcRoot) against export data from the go command.
type Loader struct {
	// ModuleDir is the directory holding go.mod; go list runs there.
	ModuleDir string
	// SrcRoot, when nonempty, is an analysistest-style source root:
	// imports resolve to SrcRoot/<importpath> first and fall back to
	// export data. Mirrors x/tools analysistest's GOPATH layout.
	SrcRoot string

	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	gcImp   types.ImporterFrom
	srcPkgs map[string]*types.Package // typechecked fixture packages
}

// NewLoader returns a Loader rooted at the go.mod directory above dir.
func NewLoader(dir string) (*Loader, error) {
	moduleDir, err := findModuleDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModuleDir: moduleDir,
		fset:      token.NewFileSet(),
		exports:   make(map[string]string),
		srcPkgs:   make(map[string]*types.Package),
	}
	l.gcImp = importer.ForCompiler(l.fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l, nil
}

func findModuleDir(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	f, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q (run go list -export first)", path)
	}
	return os.Open(f)
}

// listedPkg is the subset of `go list -json` we consume.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
}

// goList runs `go list -export -json -deps` on the patterns and merges
// every package's export data into the loader, returning the packages
// named by the patterns themselves (DepOnly == false).
func (l *Loader) goList(patterns ...string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Standard",
		"-deps", "--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleDir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list -export %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var targets []listedPkg
	dec := json.NewDecoder(&out)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	return targets, nil
}

// LoadPackages type-checks every non-stdlib package matched by the
// go list patterns (e.g. "./..."), from source, in import-path order.
func (l *Loader) LoadPackages(patterns ...string) ([]*Package, error) {
	targets, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	var pkgs []*Package
	for _, t := range targets {
		if t.Standard || len(t.GoFiles) == 0 {
			continue
		}
		var filenames []string
		for _, g := range t.GoFiles {
			filenames = append(filenames, filepath.Join(t.Dir, g))
		}
		pkg, err := l.check(t.ImportPath, filenames)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadTestPackage type-checks the fixture package SrcRoot/<importPath>.
// Imports under SrcRoot are themselves type-checked from source;
// everything else must be importable as export data, which this call
// fetches on demand.
func (l *Loader) LoadTestPackage(importPath string) (*Package, error) {
	if l.SrcRoot == "" {
		return nil, fmt.Errorf("LoadTestPackage requires SrcRoot")
	}
	filenames, err := l.fixtureFiles(importPath)
	if err != nil {
		return nil, err
	}
	if err := l.ensureStdExports(importPath, filenames, map[string]bool{}); err != nil {
		return nil, err
	}
	return l.check(importPath, filenames)
}

func (l *Loader) fixtureFiles(importPath string) ([]string, error) {
	dir := filepath.Join(l.SrcRoot, filepath.FromSlash(importPath))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(filenames)
	return filenames, nil
}

// ensureStdExports walks the fixture import graph and fetches export
// data for every import that does not resolve under SrcRoot.
func (l *Loader) ensureStdExports(importPath string, filenames []string, seen map[string]bool) error {
	if seen[importPath] {
		return nil
	}
	seen[importPath] = true
	var std []string
	for _, fn := range filenames {
		f, err := parser.ParseFile(token.NewFileSet(), fn, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "unsafe" {
				continue
			}
			if sub, err := l.fixtureFiles(path); err == nil {
				if err := l.ensureStdExports(path, sub, seen); err != nil {
					return err
				}
				continue
			}
			if _, ok := l.exports[path]; !ok {
				std = append(std, path)
			}
		}
	}
	if len(std) > 0 {
		if _, err := l.goList(std...); err != nil {
			return err
		}
	}
	return nil
}

// Import implements types.Importer over the SrcRoot-then-export-data
// resolution order.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.SrcRoot != "" {
		if pkg, ok := l.srcPkgs[path]; ok {
			return pkg, nil
		}
		if filenames, err := l.fixtureFiles(path); err == nil {
			pkg, err := l.check(path, filenames)
			if err != nil {
				return nil, err
			}
			l.srcPkgs[path] = pkg.Types
			return pkg.Types, nil
		}
	}
	return l.gcImp.ImportFrom(path, l.ModuleDir, 0)
}

// check parses and type-checks one package from source.
func (l *Loader) check(importPath string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
