package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestIndexSuppressions exercises the comment scanner directly: key
// extraction, reason trimming, and the `// want` clause (analysistest
// expectation syntax) never leaking into the reason.
func TestIndexSuppressions(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //bluefi:nondeterministic-ok timing probe
	_ = 2 //bluefi:alias-ok documented read-only view // want "ignored"
	_ = 3 //bluefi:lock-ok
	// plain comment
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := indexSuppressions(fset, []*ast.File{f})
	byLine := idx["p.go"]
	if byLine == nil {
		t.Fatal("no suppressions indexed for p.go")
	}
	cases := []struct {
		line   int
		key    string
		reason string
	}{
		{4, "nondeterministic-ok", "timing probe"},
		{5, "alias-ok", "documented read-only view"},
		{6, "lock-ok", ""},
	}
	for _, c := range cases {
		sc := byLine[c.line]
		if sc == nil {
			t.Errorf("line %d: no suppression indexed", c.line)
			continue
		}
		if sc.key != c.key || sc.reason != c.reason {
			t.Errorf("line %d: got key=%q reason=%q, want key=%q reason=%q", c.line, sc.key, sc.reason, c.key, c.reason)
		}
	}
	if byLine[7] != nil {
		t.Error("plain comment indexed as suppression")
	}
}

// TestReportfSuppression drives Reportf through the three suppression
// outcomes: reasoned comments swallow the diagnostic, reasonless
// comments keep it and add a needs-a-reason companion, and unrelated
// keys do not suppress.
func TestReportfSuppression(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //bluefi:test-ok documented exception
	_ = 2 //bluefi:test-ok
	_ = 3 //bluefi:other-ok reason
	_ = 4
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Name: "test", SuppressKey: "test-ok"}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:    a,
		Fset:        fset,
		diags:       &diags,
		suppression: indexSuppressions(fset, []*ast.File{f}),
	}
	linePos := func(line int) token.Pos {
		tf := fset.File(f.Pos())
		return tf.LineStart(line)
	}
	pass.Reportf(linePos(4), "suppressed")
	pass.Reportf(linePos(5), "kept, reasonless")
	pass.Reportf(linePos(6), "kept, wrong key")
	pass.Reportf(linePos(7), "kept, no comment")

	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{
		"suppression //bluefi:test-ok needs a reason",
		"kept, reasonless",
		"kept, wrong key",
		"kept, no comment",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d: got %q, want %q", i, got[i], want[i])
		}
	}
}
