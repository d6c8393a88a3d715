package fishstore

import (
	"os/exec"
	"reflect"
	"slices"
	"testing"
)

// TestStoreSurface pins the exported methods of *Store, so a new public
// method is a deliberate edit here rather than a side effect.
func TestStoreSurface(t *testing.T) {
	want := []string{
		"BuildHistoricalIndex", "CacheStats", "ChainGapProfile", "Checkpoint",
		"CheckpointContext", "Close", "DeregisterPSF", "Flush", "HeadAddress",
		"Iterate", "Lookup", "Metrics", "NewSession", "PSFByName",
		"RecoverLogSpace", "RegisterPSF", "Scan", "ScanContext", "ScanDecisions",
		"ScanRange", "Stats", "Subscribe", "TailAddress", "TruncateUntil", "VerifyLog",
	}
	typ := reflect.TypeOf((*Store)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ { // exported only, sorted by name
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Store exports %d methods, want %d:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
}

// TestBenchmarkModule vets and tests the benchmark module, which calls the
// store's public surface from its own go.mod and so is outside ./... — a
// removed or changed method it uses fails here, not only in CI.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark module (~10 s)")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go not on PATH")
	}
	for _, args := range [][]string{{"vet", "."}, {"test", "."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "benchmark"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in benchmark/: %v\n%s", args, err, out)
		}
	}
}
