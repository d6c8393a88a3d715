package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fishstore"
	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	itrace "fishstore/internal/trace"
)

// TestTraceAgainstLiveStore stands up a tracing store behind the metrics
// mux, runs an ingest and a scan, and checks `trace` pulls a well-formed
// Chrome trace with the expected operation spans.
func TestTraceAgainstLiveStore(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := fishstore.Open(fishstore.Options{
		Metrics: reg,
		Tracer:  itrace.New(itrace.Options{}),
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
	for i := 0; i < 32; i++ {
		batch = append(batch, []byte(fmt.Sprintf(`{"id": %d, "repo": {"name": "repo-%d"}}`, i, i%4)))
	}
	if _, err := sess.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if _, err := s.Scan(fishstore.PropertyString(id, "repo-1"), fishstore.ScanOptions{},
		func(fishstore.Record) bool { return true }); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(metrics.NewMux(reg))
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "spans.json")
	var stdout, stderr bytes.Buffer
	if code := traceMain([]string{"-addr", srv.URL, "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("trace exited %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var ct itrace.ChromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("output is not valid Chrome trace JSON: %v\n%s", err, raw)
	}
	names := map[string]bool{}
	for _, e := range ct.TraceEvents {
		names[e.Name] = true
		if e.Name == "ingest.batch" && e.Args["parse_ns"] == nil {
			t.Errorf("ingest.batch span carries no parse_ns phase attribute: %v", e.Args)
		}
	}
	for _, want := range []string{"ingest.batch", "scan", "scan.plan"} {
		if !names[want] {
			t.Errorf("trace output missing %q span; have %v", want, names)
		}
	}
	if !strings.Contains(stderr.String(), "spans ->") {
		t.Errorf("no span-count summary on stderr: %s", stderr.String())
	}
}

// TestTraceStdoutWithTracingOff checks a store without a tracer answers with
// a valid empty envelope and the CLI hints at enabling tracing.
func TestTraceStdoutWithTracingOff(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := fishstore.Open(fishstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(metrics.NewMux(reg))
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	if code := traceMain([]string{"-addr", strings.TrimPrefix(srv.URL, "http://")}, &stdout, &stderr); code != 0 {
		t.Fatalf("trace exited %d, stderr: %s", code, stderr.String())
	}
	var ct itrace.ChromeTrace
	if err := json.Unmarshal(stdout.Bytes(), &ct); err != nil {
		t.Fatalf("stdout is not valid Chrome trace JSON: %v\n%s", err, stdout.String())
	}
	if len(ct.TraceEvents) != 0 {
		t.Errorf("expected empty trace, got %d events", len(ct.TraceEvents))
	}
	if !strings.Contains(stderr.String(), "no spans buffered") {
		t.Errorf("missing no-spans hint on stderr: %s", stderr.String())
	}
}

// TestTraceUnreachable checks a connection failure is reported, not panicked.
func TestTraceUnreachable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := traceMain([]string{"-addr", "127.0.0.1:1"}, &stdout, &stderr); code != 1 {
		t.Fatalf("trace against a dead port exited %d, want 1", code)
	}
	if stderr.Len() == 0 {
		t.Error("no error message on stderr")
	}
}
