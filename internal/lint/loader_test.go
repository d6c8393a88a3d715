package lint

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadTestsIncludesExternalTestPackage verifies the two test-mode
// package shapes go list synthesizes are both analyzed: the package under
// test recompiled with its in-package _test.go files, and the separate
// external (package foo_test) compilation unit. Production mode must load
// neither.
func TestLoadTestsIncludesExternalTestPackage(t *testing.T) {
	pat := "./testdata/src/testmode"

	pkgs, err := LoadTests(".", pat)
	if err != nil {
		t.Fatal(err)
	}
	var sawInternal, sawExternal bool
	for _, p := range pkgs {
		switch {
		case p.Name == "testmode_test":
			sawExternal = true
		case p.Name == "testmode" && hasFileSuffix(p, "_test.go"):
			sawInternal = true
		}
	}
	if !sawInternal {
		t.Error("test mode did not load the in-package test variant of testmode")
	}
	if !sawExternal {
		t.Error("test mode did not load the external testmode_test package")
	}

	prod, err := Load(".", pat)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prod {
		if p.Name == "testmode_test" || hasFileSuffix(p, "_test.go") {
			t.Errorf("production load included test sources in %s", p.PkgPath)
		}
	}
}

func hasFileSuffix(p *Package, suffix string) bool {
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, suffix) {
			return true
		}
	}
	return false
}

// TestBaselineRoundTrip covers the baseline lifecycle: write, re-read, and
// apply with per-key count budgets — a second identical finding in the same
// file must survive a baseline that recorded only one.
func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mk := func(file string, line int, msg string) Finding {
		return Finding{
			Analyzer: "hotalloc",
			Pos:      token.Position{Filename: filepath.Join(dir, file), Line: line, Column: 1},
			Message:  msg,
		}
	}
	recorded := []Finding{
		mk("ingest.go", 10, "append grows []byte in hot-path function parse"),
		mk("ingest.go", 20, "map literal allocates in hot-path function parse"),
	}
	b := NewBaseline(recorded, dir)
	path := filepath.Join(dir, "baseline.json")
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 {
		t.Fatalf("round-tripped baseline has %d entries, want 2", len(got.Entries))
	}

	// Same findings on shifted lines are absorbed (keys are position-free);
	// a duplicate beyond the recorded count and a novel message are not.
	res := Result{Findings: []Finding{
		mk("ingest.go", 14, "append grows []byte in hot-path function parse"),
		mk("ingest.go", 30, "append grows []byte in hot-path function parse"),
		mk("ingest.go", 25, "map literal allocates in hot-path function parse"),
		mk("ingest.go", 40, "interface conversion allocates in hot-path function parse"),
	}}
	ApplyBaseline(&res, got, dir)
	if res.Baselined != 2 {
		t.Errorf("Baselined = %d, want 2", res.Baselined)
	}
	if len(res.Findings) != 2 {
		t.Fatalf("surviving findings = %v, want the over-budget duplicate and the novel finding", res.Findings)
	}
	for _, f := range res.Findings {
		if !strings.Contains(f.Message, "append grows") && !strings.Contains(f.Message, "interface conversion") {
			t.Errorf("unexpected survivor: %s", f.String())
		}
	}
}

// TestBaselineKeysAreRelative keeps baselines machine-independent: keys must
// not embed the absolute checkout path.
func TestBaselineKeysAreRelative(t *testing.T) {
	dir := t.TempDir()
	f := Finding{
		Analyzer: "hotalloc",
		Pos:      token.Position{Filename: filepath.Join(dir, "sub", "x.go"), Line: 3},
		Message:  "m",
	}
	b := NewBaseline([]Finding{f}, dir)
	for k := range b.Entries {
		if strings.Contains(k, dir) {
			t.Errorf("baseline key embeds absolute dir: %q", k)
		}
		if !strings.Contains(k, "sub/x.go") {
			t.Errorf("baseline key lost the relative path: %q", k)
		}
	}
}
