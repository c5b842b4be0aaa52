package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bluefi/internal/analysis/framework"
)

// seededModule is a scratch module with one determinism violation.
var seededModule = map[string]string{
	"go.mod": "module scratchlint\n\ngo 1.22\n",
	"bad.go": `package scratchlint

import "math/rand"

func Roll() int { return rand.Intn(6) }
`,
}

// writeModule writes files into a fresh temporary directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLintFindsSeededViolation builds a scratch module containing a
// determinism violation and requires the multichecker to report it —
// the finding count that makes the bluefi-lint binary exit non-zero.
func TestLintFindsSeededViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export on a scratch module; skipped in -short")
	}
	var out strings.Builder
	n, err := framework.Lint(&out, writeModule(t, seededModule), all, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("expected the seeded rand.Intn violation to be reported")
	}
	if !strings.Contains(out.String(), "process-seeded global source") {
		t.Errorf("unexpected diagnostic output:\n%s", out.String())
	}
}

// TestExitStatus builds the binary and checks the exit status CI gates
// on: 1 with the finding on stdout for a violation, 0 for a clean
// module, 2 when there is no module to load.
func TestExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs go list -export; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "bluefi-lint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		name   string
		dir    string
		code   int
		stdout string
	}{
		{"finding", writeModule(t, seededModule), 1, "process-seeded global source"},
		{"clean", writeModule(t, map[string]string{
			"go.mod":  "module scratchclean\n\ngo 1.22\n",
			"good.go": "package scratchclean\n\nfunc Add(a, b int) int { return a + b }\n",
		}), 0, ""},
		{"no module", t.TempDir(), 2, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(bin)
			cmd.Dir = c.dir
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != c.code {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Errorf("stdout lacks %q:\n%s", c.stdout, stdout.String())
			}
			if c.stdout == "" && stdout.Len() != 0 {
				t.Errorf("unexpected stdout:\n%s", stdout.String())
			}
		})
	}
}

// TestRepoIsLintClean runs the full multichecker over the module — the
// same invocation as `make lint` — and requires zero findings. Any new
// nondeterminism, lock-discipline breach or scratch alias in the repo
// fails this test before it reaches CI's lint job.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint compiles the module; skipped in -short")
	}
	moduleDir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(moduleDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(moduleDir)
		if parent == moduleDir {
			t.Fatal("no go.mod above test working directory")
		}
		moduleDir = parent
	}
	var out strings.Builder
	n, err := framework.Lint(&out, moduleDir, all, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("bluefi-lint found %d issue(s) in the repo:\n%s", n, out.String())
	}
}
