// Package analysistest runs one analyzer over fixture packages and
// checks its diagnostics against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on top of the repo's
// self-contained framework. Fixtures live under
// internal/analysis/testdata/src/<importpath>/ — an analysistest-style
// source root, so fixtures can import fake module packages (e.g. a stub
// bluefi/internal/dsp) that resolve inside testdata instead of the real
// tree.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bluefi/internal/analysis/framework"
)

// TestData returns the shared fixture root internal/analysis/testdata,
// located relative to the enclosing module.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "internal", "analysis", "testdata")
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("analysistest: no go.mod above test working directory")
		}
		dir = parent
	}
}

// wantRe extracts the expectation clause of a comment. Each clause is a
// sequence of quoted Go strings, every one a regexp that must match a
// distinct diagnostic reported on that line.
var wantRe = regexp.MustCompile(`// want (.*)$`)

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads each fixture package under testdata/src, applies the
// analyzer, and reports every mismatch between reported diagnostics and
// // want expectations through t.
func Run(t *testing.T, testdata string, a *framework.Analyzer, importPaths ...string) {
	t.Helper()
	loader, err := framework.NewLoader(testdata)
	if err != nil {
		t.Fatal(err)
	}
	loader.SrcRoot = filepath.Join(testdata, "src")
	for _, path := range importPaths {
		pkg, err := loader.LoadTestPackage(path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		diags, err := framework.Run(pkg, []*framework.Analyzer{a})
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		checkExpectations(t, pkg, diags)
	}
}

func checkExpectations(t *testing.T, pkg *framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	wants := make(map[string][]*expectation) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				key := posKey(pos)
				for _, pat := range parseWantPatterns(m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", key, pat, err)
						continue
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		key := posKey(d.Pos)
		found := false
		for _, e := range wants[key] {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, es := range wants {
		for _, e := range es {
			if !e.matched {
				t.Errorf("%s: no diagnostic matching %q", key, e.re)
			}
		}
	}
}

func posKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

// parseWantPatterns splits `"a" "b"` into its quoted strings. Both
// double-quoted and backquoted Go string syntax are accepted.
func parseWantPatterns(s string) []string {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			break
		}
		end := 1
		for end < len(s) {
			if s[end] == quote && (quote == '`' || s[end-1] != '\\') {
				break
			}
			end++
		}
		if end >= len(s) {
			break
		}
		if pat, err := strconv.Unquote(s[:end+1]); err == nil {
			pats = append(pats, pat)
		}
		s = strings.TrimSpace(s[end+1:])
	}
	return pats
}
