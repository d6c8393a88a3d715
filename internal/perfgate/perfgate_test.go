package perfgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func entries(pairs ...any) []Entry {
	var out []Entry
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, Entry{Name: pairs[i].(string), RecordsPerSec: pairs[i+1].(float64)})
	}
	return out
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := entries("BenchmarkIngestYelp", 100000.0, "BenchmarkScanIndex", 50000.0)
	cur := entries("BenchmarkIngestYelp", 95000.0, "BenchmarkScanIndex", 51000.0)
	rep := Compare(base, cur, 0.10)
	if rep.Failed() {
		t.Fatalf("5%% slowdown under a 10%% threshold must pass: %+v", rep.Deltas)
	}
}

func TestCompareInjectedRegressionFails(t *testing.T) {
	// The acceptance criterion: an injected >=10% regression trips the gate.
	base := entries("BenchmarkIngestYelp", 100000.0)
	cur := entries("BenchmarkIngestYelp", 89000.0)
	rep := Compare(base, cur, 0.10)
	if !rep.Failed() {
		t.Fatal("11% regression under a 10% threshold must fail")
	}
	if !rep.Deltas[0].Regressed {
		t.Fatalf("delta not marked regressed: %+v", rep.Deltas[0])
	}
}

func TestCompareExactThresholdBoundary(t *testing.T) {
	// current == baseline*(1-threshold) is NOT a regression (strict <).
	base := entries("b", 1000.0)
	cur := entries("b", 900.0)
	if Compare(base, cur, 0.10).Failed() {
		t.Fatal("exactly at the boundary must pass")
	}
	cur[0].RecordsPerSec = 899.999
	if !Compare(base, cur, 0.10).Failed() {
		t.Fatal("just past the boundary must fail")
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := entries("a", 1000.0, "b", 1000.0)
	cur := entries("a", 1000.0)
	rep := Compare(base, cur, 0.10)
	if !rep.Failed() {
		t.Fatal("benchmark missing from the current run must fail the gate")
	}
	var found bool
	for _, d := range rep.Deltas {
		if d.Name == "b" && d.Missing {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected b marked missing: %+v", rep.Deltas)
	}
}

func TestCompareNewBenchmarkIsWarningOnly(t *testing.T) {
	base := entries("a", 1000.0)
	cur := entries("a", 1000.0, "brandnew", 42.0)
	rep := Compare(base, cur, 0.10)
	if rep.Failed() {
		t.Fatal("a new benchmark with no baseline must not fail the gate")
	}
	var sb strings.Builder
	rep.Write(&sb)
	if !strings.Contains(sb.String(), "brandnew") || !strings.Contains(sb.String(), "no baseline") {
		t.Fatalf("report should mention the new benchmark:\n%s", sb.String())
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_ingest.json")
	body := `[{"name":"BenchmarkIngestYelp","records_per_sec":123456.7,"bytes_per_sec":1.0,"phase_means_ns":{"parse":10}}]`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "BenchmarkIngestYelp" || got[0].RecordsPerSec != 123456.7 {
		t.Fatalf("unexpected entries: %+v", got)
	}
}

func TestParseRejectsNamelessEntry(t *testing.T) {
	if _, err := Parse(strings.NewReader(`[{"records_per_sec":1}]`)); err == nil {
		t.Fatal("expected error for entry without a name")
	}
}

func TestReportWriteMarksFailures(t *testing.T) {
	rep := Compare(entries("slow", 1000.0, "gone", 500.0), entries("slow", 800.0), 0.10)
	var sb strings.Builder
	rep.Write(&sb)
	out := sb.String()
	if !strings.Contains(out, "FAIL slow") {
		t.Fatalf("expected FAIL line for slow:\n%s", out)
	}
	if !strings.Contains(out, "MISS gone") {
		t.Fatalf("expected MISS line for gone:\n%s", out)
	}
}

func TestCheckInvariantsOrdering(t *testing.T) {
	invs := []Invariant{{
		Name: "pf", Faster: "Prefetch", Slower: "NoPrefetch", Slack: 0.10,
	}}

	// Faster actually faster: holds.
	res := CheckInvariants(entries("Prefetch", 2000.0, "NoPrefetch", 1000.0), invs)
	if len(res) != 1 || res[0].Violated || res[0].Skipped {
		t.Fatalf("ordering that holds reported: %+v", res)
	}

	// Within slack: still holds.
	res = CheckInvariants(entries("Prefetch", 950.0, "NoPrefetch", 1000.0), invs)
	if res[0].Violated {
		t.Fatalf("within-slack shortfall flagged: %+v", res[0])
	}

	// Past slack: violated.
	res = CheckInvariants(entries("Prefetch", 500.0, "NoPrefetch", 1000.0), invs)
	if !res[0].Violated {
		t.Fatalf("2x pessimization not flagged: %+v", res[0])
	}

	// Missing benchmark: skipped, not violated.
	res = CheckInvariants(entries("Prefetch", 500.0), invs)
	if !res[0].Skipped || res[0].Violated {
		t.Fatalf("absent slower benchmark mishandled: %+v", res[0])
	}
}

func TestWriteInvariantsMarksViolation(t *testing.T) {
	invs := ScanInvariants()
	res := CheckInvariants(entries(
		"BenchmarkScanIndexPrefetch", 100.0,
		"BenchmarkScanIndexNoPrefetch", 1000.0), invs)
	var sb strings.Builder
	if !WriteInvariants(&sb, res) {
		t.Fatal("violation not reported by WriteInvariants")
	}
	if !strings.Contains(sb.String(), "FAIL prefetch-not-a-pessimization") {
		t.Fatalf("missing FAIL line:\n%s", sb.String())
	}
}

func allocEntries(triples ...any) []Entry {
	var out []Entry
	for i := 0; i < len(triples); i += 3 {
		out = append(out, Entry{
			Name:          triples[i].(string),
			RecordsPerSec: triples[i+1].(float64),
			AllocsPerOp:   triples[i+2].(float64),
		})
	}
	return out
}

func TestCompareAllocWithinThresholdPasses(t *testing.T) {
	base := allocEntries("BenchmarkIngestYelp", 100000.0, 100.0)
	cur := allocEntries("BenchmarkIngestYelp", 100000.0, 105.0)
	if rep := CompareAlloc(base, cur, 0.10, 0.10); rep.Failed() {
		t.Fatalf("5%% alloc growth under a 10%% threshold must pass: %+v", rep.Deltas)
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	base := allocEntries("BenchmarkIngestYelp", 100000.0, 100.0)
	cur := allocEntries("BenchmarkIngestYelp", 100000.0, 120.0)
	rep := CompareAlloc(base, cur, 0.10, 0.10)
	if !rep.Failed() || !rep.Deltas[0].AllocsRegressed {
		t.Fatalf("20%% alloc growth over a 10%% threshold must fail: %+v", rep.Deltas)
	}
	// The FAIL line names the allocation regression.
	var sb strings.Builder
	rep.Write(&sb)
	if !strings.Contains(sb.String(), "allocs/op") || !strings.Contains(sb.String(), "FAIL") {
		t.Fatalf("report does not mark the alloc regression:\n%s", sb.String())
	}
}

func TestCompareAllocAbsoluteGrace(t *testing.T) {
	// Near-zero baselines get a +2 absolute grace: 1 -> 3 passes, 1 -> 3.5
	// fails. Zero baselines (predating alloc tracking) are not gated at all.
	base := allocEntries("A", 1000.0, 1.0, "B", 1000.0, 0.0)
	cur := allocEntries("A", 1000.0, 3.0, "B", 1000.0, 500.0)
	if rep := CompareAlloc(base, cur, 0.10, 0.10); rep.Failed() {
		t.Fatalf("within grace / ungated must pass: %+v", rep.Deltas)
	}
	cur = allocEntries("A", 1000.0, 3.5, "B", 1000.0, 500.0)
	if rep := CompareAlloc(base, cur, 0.10, 0.10); !rep.Failed() {
		t.Fatalf("3.5 allocs over a 1-alloc baseline must fail: %+v", rep.Deltas)
	}
}

// invariantByName digs one named invariant's result out of a CheckInvariants
// report (IngestInvariants carries several independent pairs).
func invariantByName(t *testing.T, res []InvariantResult, name string) InvariantResult {
	t.Helper()
	for _, r := range res {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("invariant %q missing from %+v", name, res)
	return InvariantResult{}
}

func TestIngestInvariantAdmissionOverhead(t *testing.T) {
	// Governor armed-but-idle within 2% of no governor: ok.
	cur := entries("BenchmarkIngestYelpLimits", 98500.0, "BenchmarkIngestYelpNoLimits", 100000.0)
	r := invariantByName(t, CheckInvariants(cur, IngestInvariants()), "admission-overhead-under-2pct")
	if r.Skipped || r.Violated {
		t.Fatalf("1.5%% overhead under a 2%% slack must pass: %+v", r)
	}
	// 4% overhead: the slow path leaked into the uncontended case.
	cur = entries("BenchmarkIngestYelpLimits", 96000.0, "BenchmarkIngestYelpNoLimits", 100000.0)
	r = invariantByName(t, CheckInvariants(cur, IngestInvariants()), "admission-overhead-under-2pct")
	if !r.Violated {
		t.Fatalf("4%% overhead over a 2%% slack must fail: %+v", r)
	}
	// Pair absent from the run: skipped, not violated.
	r = invariantByName(t, CheckInvariants(entries("BenchmarkIngestYelp", 1.0), IngestInvariants()),
		"admission-overhead-under-2pct")
	if !r.Skipped || r.Violated {
		t.Fatalf("absent pair must skip: %+v", r)
	}
}
