package main

import (
	"path/filepath"
	"strings"
	"testing"

	"fishstore/internal/lint"
)

// The fixture packages live in the lint package's testdata; run() resolves
// patterns against the process working directory, which for tests is this
// package's source directory.
const fixtures = "../../internal/lint/testdata/src"

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestUsageErrors(t *testing.T) {
	if code, _, stderr := runCLI(t); code != 2 {
		t.Errorf("no args: exit %d, want 2 (stderr: %s)", code, stderr)
	} else if !strings.Contains(stderr, "usage: fishlint") {
		t.Errorf("no args: stderr missing usage: %s", stderr)
	}
	if code, _, _ := runCLI(t, "-nonsense", "./..."); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code, _, stderr := runCLI(t, "./does-not-exist-anywhere"); code != 2 {
		t.Errorf("bad pattern: exit %d, want 2 (stderr: %s)", code, stderr)
	}
}

func TestFindingsExitOne(t *testing.T) {
	code, stdout, stderr := runCLI(t, fixtures+"/errflowtest")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "errflow") {
		t.Errorf("stdout missing errflow finding:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 package(s)") {
		t.Errorf("stderr missing summary: %s", stderr)
	}
}

func TestSuppressionExitZero(t *testing.T) {
	code, stdout, stderr := runCLI(t, fixtures+"/suppresstest")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "1 suppressed") {
		t.Errorf("stderr missing suppression count: %s", stderr)
	}
}

func TestQuietFlag(t *testing.T) {
	code, _, stderr := runCLI(t, "-q", fixtures+"/suppresstest")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	if stderr != "" {
		t.Errorf("-q still wrote to stderr: %s", stderr)
	}
}

// TestPatternExpansion checks ./... resolves through the go tool relative to
// the working directory: linting this command package itself must come back
// clean with exactly one package matched (testdata trees are excluded from
// ./... expansion by the go tool).
func TestPatternExpansion(t *testing.T) {
	code, stdout, stderr := runCLI(t, "./...")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "1 package(s), 0 finding(s)") {
		t.Errorf("stderr summary = %q, want 1 clean package", stderr)
	}
}

// TestTimingFlag checks -timing prints one stderr line per analyzer without
// disturbing the findings stream or exit code.
func TestTimingFlag(t *testing.T) {
	code, _, stderr := runCLI(t, "-timing", fixtures+"/suppresstest")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	n := strings.Count(stderr, "fishlint: timing:")
	if want := len(lint.Analyzers()); n != want {
		t.Errorf("timing lines = %d, want %d (one per analyzer)\n%s", n, want, stderr)
	}
}

// TestHotallocBaselineFlow exercises the write-then-absorb cycle: capture the
// hotalloc fixture's findings into a temp baseline, then re-run against it
// and require a clean exit with every finding baselined.
func TestHotallocBaselineFlow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")

	code, _, stderr := runCLI(t, "-write-hotalloc-baseline", path, fixtures+"/hotalloctest")
	if code != 0 {
		t.Fatalf("write: exit %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "hotalloc finding(s)") {
		t.Errorf("write: stderr missing confirmation: %s", stderr)
	}

	code, stdout, stderr := runCLI(t, "-hotalloc-baseline", path, fixtures+"/hotalloctest")
	if code != 0 {
		t.Fatalf("absorb: exit %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("absorb: findings leaked past the baseline:\n%s", stdout)
	}
	if !strings.Contains(stderr, "0 finding(s)") || strings.Contains(stderr, " 0 baselined") {
		t.Errorf("absorb: summary = %q, want zero findings and a nonzero baselined count", stderr)
	}

	// A missing baseline file is a usage error, not a silent full-fail run.
	if code, _, _ := runCLI(t, "-hotalloc-baseline", path+".nope", fixtures+"/hotalloctest"); code != 2 {
		t.Errorf("missing baseline file: exit %d, want 2", code)
	}
}
