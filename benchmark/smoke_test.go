package main

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, on a 2 MB corpus for
// half a second and asserts that every declared metric comes out finite and that
// no operation or correctness check failed — so a benchmark that stops
// running is caught by `go test`, not by the next performance PR.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want := map[string]bool{}
		if traced {
			for _, m := range perLayer {
				want[m.Name] = true
			}
		} else {
			for _, m := range endToEnd {
				want[m.Name] = true
			}
		}
		for i := range workloads {
			w := &workloads[i]
			cfg := config{seed: 1, seconds: 0.5, corpusMB: 2, trace: traced}
			res, _, err := runWorkload(cfg, w, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, res.failed, res.attempted, res.failures)
			}
			got := map[string]bool{}
			for _, row := range res.rows {
				got[row.Metric] = true
				if math.IsNaN(row.Value) || math.IsInf(row.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, row.Metric, row.Value)
				}
				if !traced && row.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, row.Metric, row.Value)
				}
			}
			for name := range want {
				if !got[name] {
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, name)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(got), len(want))
			}
		}
	}
}

// TestSpecInSync fails when BENCHMARK.json at the repository root is not what
// spec.go declares (regenerate it with `go run . -print-spec`).
func TestSpecInSync(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Error("BENCHMARK.json differs from spec.go; run `go run . -print-spec > ../BENCHMARK.json` in benchmark/")
	}
}
