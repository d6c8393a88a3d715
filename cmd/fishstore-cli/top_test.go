package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fishstore"
	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/telemetry"
)

// TestTopAgainstLiveStore stands up a real store (with an SLO watchdog)
// behind the metrics mux and checks `top` renders the workload view: the
// health verdict with burn rates, the per-op latency table, and the heavy
// hitters per dimension.
func TestTopAgainstLiveStore(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := fishstore.Open(fishstore.Options{
		Metrics: reg,
		SLO:     &telemetry.SLO{IngestBatchP99: time.Second, Interval: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	var batch [][]byte
	for i := 0; i < 256; i++ {
		batch = append(batch,
			[]byte(fmt.Sprintf(`{"id": %d, "repo": {"name": "repo-%d"}}`, i, i%4)))
		if len(batch) == 64 {
			if _, err := sess.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	sess.Close()
	if _, err := s.Scan(fishstore.PropertyString(id, "repo-1"), fishstore.ScanOptions{},
		func(fishstore.Record) bool { return true }); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(metrics.NewMux(reg))
	defer srv.Close()

	var out, errOut bytes.Buffer
	if code := topMain([]string{"-addr", srv.URL, "-n", "5"}, &out, &errOut); code != 0 {
		t.Fatalf("top exited %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"health: ok",
		"slo ingest_batch_p99",
		"ingest_batch",
		"index_scan",
		"top PSFs (ingest)",
		"proj(repo.name)",
		"top queried properties",
		"proj(repo.name)=repo-1",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("top output missing %q:\n%s", want, got)
		}
	}
}

// TestTopTelemetryDisabled: against an endpoint with no store behind it the
// workload endpoint 404s; top must fail cleanly with the endpoint's error.
func TestTopTelemetryDisabled(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := httptest.NewServer(metrics.NewMux(reg))
	defer srv.Close()

	var out, errOut bytes.Buffer
	if code := topMain([]string{"-addr", srv.URL}, &out, &errOut); code != 1 {
		t.Fatalf("top exited %d, want 1; stdout: %s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "workload") {
		t.Fatalf("error does not name the endpoint: %s", errOut.String())
	}
}

// TestTopBadFlags: flag errors exit 1 without panicking.
func TestTopBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := topMain([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 1 {
		t.Fatalf("bad flag exited %d, want 1", code)
	}
}
