package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// want is one expected finding, parsed from a fixture comment of the form
//
//	// want <analyzer> "<message substring>"
//
// attached to the line it sits on.
type want struct {
	file     string
	line     int
	analyzer string
	substr   string
	matched  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(\w+)\s+"([^"]*)"`)

// collectWants scans every fixture .go file under dir for want comments.
// With includeTests false, _test.go files are skipped — their wants are only
// reachable through LoadTests.
func collectWants(t *testing.T, dir string, includeTests bool) []*want {
	t.Helper()
	var wants []*want
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		if !includeTests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			for _, m := range wantRE.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &want{file: abs, line: n, analyzer: m[1], substr: m[2]})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// fixturePatterns lists every package under testdata/src as a ./ pattern.
func fixturePatterns(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var pats []string
	for _, e := range entries {
		if e.IsDir() {
			pats = append(pats, "./testdata/src/"+e.Name())
		}
	}
	if len(pats) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	return pats
}

// matchGolden requires an exact bidirectional match between findings and
// want comments: every want must be hit by a finding of that analyzer on
// that line whose message contains the quoted substring, and every finding
// must be claimed by some want.
func matchGolden(t *testing.T, res Result, wants []*want) {
	t.Helper()
	var unexpected []string
	for _, f := range res.Findings {
		claimed := false
		for _, w := range wants {
			if w.matched {
				continue
			}
			if f.Pos.Filename == w.file && f.Pos.Line == w.line &&
				f.Analyzer == w.analyzer && strings.Contains(f.Message, w.substr) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			unexpected = append(unexpected, f.String())
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding: %s:%d: %s %q", w.file, w.line, w.analyzer, w.substr)
		}
	}
	sort.Strings(unexpected)
	for _, u := range unexpected {
		t.Errorf("unexpected finding: %s", u)
	}
}

// TestGolden loads every fixture package in production mode and matches
// findings against the want comments in non-test files. The testmode
// fixture's _test.go wants are invisible here by construction: production
// mode must not see them.
func TestGolden(t *testing.T) {
	pkgs, err := Load(".", fixturePatterns(t)...)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(pkgs, Analyzers())

	wants := collectWants(t, "testdata/src", false)
	if len(wants) == 0 {
		t.Fatal("no // want comments found in fixtures")
	}
	matchGolden(t, res, wants)

	// The suppresstest fixture seeds exactly one puborder finding behind a
	// //lint:ignore directive; it must be the run's only suppression.
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (suppresstest fixture)", res.Suppressed)
	}
}

// TestGoldenTests loads the same fixtures in test mode (LoadTests, as
// `fishlint -tests` does) and matches against ALL want comments, including
// those seeded in the testmode fixture's in-package and external _test.go
// files. Production findings must still appear — test mode is a superset.
func TestGoldenTests(t *testing.T) {
	pkgs, err := LoadTests(".", fixturePatterns(t)...)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(pkgs, Analyzers())

	wants := collectWants(t, "testdata/src", true)
	if len(wants) == 0 {
		t.Fatal("no // want comments found in fixtures")
	}
	matchGolden(t, res, wants)

	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (suppresstest fixture)", res.Suppressed)
	}
}

// TestAnalyzersCoverEveryFixture pins the fixture set to the analyzer set:
// each analyzer must have at least one want comment proving its golden
// coverage exists.
func TestAnalyzersCoverEveryFixture(t *testing.T) {
	wants := collectWants(t, "testdata/src", true)
	byAnalyzer := make(map[string]int)
	for _, w := range wants {
		byAnalyzer[w.analyzer]++
	}
	for _, a := range Analyzers() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s has no // want coverage in testdata/src", a.Name)
		}
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		rest      string
		analyzers []string
		malformed string
	}{
		{rest: "", malformed: "missing analyzer name and justification"},
		{rest: "   ", malformed: "missing analyzer name and justification"},
		{rest: " hotalloc", malformed: "missing justification"},
		{rest: " hotalloc amortized across records", analyzers: []string{"hotalloc"}},
		{rest: " epochguard,errflow teardown path", analyzers: []string{"epochguard", "errflow"}},
		{rest: " epochguard, reason", malformed: "empty analyzer name"},
	}
	for _, tc := range cases {
		d := parseIgnore(tc.rest)
		if tc.malformed != "" {
			if !strings.Contains(d.malformed, tc.malformed) {
				t.Errorf("parseIgnore(%q).malformed = %q, want substring %q", tc.rest, d.malformed, tc.malformed)
			}
			continue
		}
		if d.malformed != "" {
			t.Errorf("parseIgnore(%q) unexpectedly malformed: %s", tc.rest, d.malformed)
			continue
		}
		for _, a := range tc.analyzers {
			if !d.analyzers[a] {
				t.Errorf("parseIgnore(%q) missing analyzer %s", tc.rest, a)
			}
		}
		if len(d.analyzers) != len(tc.analyzers) {
			t.Errorf("parseIgnore(%q) = %v, want %v", tc.rest, d.analyzers, tc.analyzers)
		}
	}
}

// TestMalformedIgnoreReported loads a throwaway package whose directives
// are bare, name an unknown analyzer, or suppress nothing, and checks the
// driver reports each as a "lint" finding rather than silently honouring it.
func TestMalformedIgnoreReported(t *testing.T) {
	dir := t.TempDir()
	src := `package malformedtest

//fishlint:hotpath seeded allocation
func grow(b []byte) []byte {
	//lint:ignore hotalloc
	return append(b, 0)
}

//lint:ignore nosuch the analyzer does not exist
func cold() []byte {
	//lint:ignore errflow nothing here drops an error
	return nil
}

var _, _ = grow, cold
`
	writeTempModule(t, dir, "malformedtest", src)
	pkgs, err := Load(dir, ".")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(pkgs, Analyzers())
	lintAt := make(map[int]string)
	sawHot := false
	for _, f := range res.Findings {
		switch f.Analyzer {
		case "lint":
			lintAt[f.Pos.Line] = f.Message
		case "hotalloc":
			sawHot = true
		}
	}
	for line, want := range map[int]string{
		5:  "missing justification",
		9:  `unknown analyzer "nosuch"`,
		11: "suppresses no finding",
	} {
		if !strings.Contains(lintAt[line], want) {
			t.Errorf("line %d: lint finding %q, want substring %q; findings: %v", line, lintAt[line], want, res.Findings)
		}
	}
	if !sawHot {
		t.Errorf("malformed directive suppressed the finding it annotates; findings: %v", res.Findings)
	}
	if res.Suppressed != 0 {
		t.Errorf("Suppressed = %d, want 0 for a malformed directive", res.Suppressed)
	}
}

// writeTempModule lays out a one-file module so Load's go list invocation
// resolves it without touching the fishstore module.
func writeTempModule(t *testing.T, dir, name, src string) {
	t.Helper()
	gomod := fmt.Sprintf("module %s\n\ngo 1.21\n", name)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}
