package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestFaults is the fault sweep: every round is a subtest named
// <profile>/seed=N, so `go test ./internal/harness -run
// 'TestFaults/cut/seed=123$'` reruns one. With FAULT_ARTIFACT_DIR set, a
// failing round leaves its report and flight dump there. Once a profile's
// whole sweep has run, it must have tripped what the profile exists to trip.
func TestFaults(t *testing.T) {
	dir := os.Getenv("FAULT_ARTIFACT_DIR")
	cuts := 100
	if testing.Short() {
		cuts = 50
	}
	for _, p := range []struct {
		profile profile
		rounds  int
		sweep   func(t *testing.T, scs []schedule, outs []outcome)
	}{
		{profileCut, cuts, cutSweep},
		{profileResource, 50, resourceSweep},
		{profileRot, 8, rotSweep},
	} {
		t.Run(string(p.profile), func(t *testing.T) {
			var scs []schedule
			var outs []outcome
			for seed := int64(1); seed <= int64(p.rounds); seed++ {
				sc := newSchedule(p.profile, seed)
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					out, err := runRound(sc, dir)
					if err != nil {
						t.Fatal(err)
					}
					scs, outs = append(scs, sc), append(outs, out)
				})
			}
			if len(outs) == p.rounds {
				p.sweep(t, scs, outs)
			}
		})
	}
}

func cutSweep(t *testing.T, _ []schedule, outs []outcome) {
	fired, survivors := 0, map[int]bool{}
	for _, o := range outs {
		if o.CutFired {
			fired++
		}
		survivors[o.Survivors] = true
	}
	if fired == 0 {
		t.Error("no armed power cut ever fired; the workload always outran the cut write")
	}
	if len(survivors) < 2 {
		t.Errorf("every cut left the same survivor count %v; cut points are not randomized", survivors)
	}
}

func resourceSweep(t *testing.T, scs []schedule, outs []outcome) {
	var armed [5]int
	var sum outcome
	recovered := 0
	for i, sc := range scs {
		for c, on := range []bool{sc.CapBytes > 0, sc.WriteDelay > 0 || sc.ReadDelay > 0,
			sc.CancelAfter > 0, sc.Subscribe, sc.Truncate} {
			if on {
				armed[c]++
			}
		}
		sum.Ingested += outs[i].Ingested
		sum.Cancelled += outs[i].Cancelled
		if outs[i].Recovered {
			recovered++
		}
	}
	for c, n := range armed {
		if n == 0 {
			t.Errorf("fault class %d (cap, slow, cancel, subscribe, truncate) never armed", c)
		}
	}
	if sum.Ingested == 0 || sum.Cancelled == 0 || recovered == 0 {
		t.Errorf("nothing ingested (%d), no cancellation aborted anything (%d), or no capped round degraded and recovered (%d)",
			sum.Ingested, sum.Cancelled, recovered)
	}
}

func rotSweep(t *testing.T, _ []schedule, outs []outcome) {
	for _, o := range outs {
		if o.Damaged {
			return
		}
	}
	t.Error("the verifier never found a flipped bit")
}

// TestFlightRecorderDumpOnPowerCut asserts the flight dump a cut round
// leaves: its event stream holds the injected "fault.powercut", preceded by
// the store activity (flushes, checkpoints) that led up to it.
func TestFlightRecorderDumpOnPowerCut(t *testing.T) {
	out, err := runRound(newSchedule(profileCut, 7), "")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	sc := bufio.NewScanner(bytes.NewReader(out.Flight))
	for sc.Scan() {
		var ev struct {
			Name string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad flight dump line %q: %v", sc.Text(), err)
		}
		names = append(names, ev.Name)
	}
	cut := -1
	for i, n := range names {
		if n == "fault.powercut" {
			cut = i
			break
		}
	}
	if cut <= 0 {
		t.Fatalf("want fault.powercut after earlier store activity; events: %v", names)
	}
	t.Logf("flight dump: %d events, powercut at index %d, preceding: %v", len(names), cut, names[:cut])
}
