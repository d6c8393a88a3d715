package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIngestOversizeLineFails pins that a line over IngestReader's 16 MiB
// record bound fails the command instead of silently ending ingestion.
func TestIngestOversizeLineFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.ndjson")
	huge := `{"s": "` + strings.Repeat("x", 16<<20) + `"}`
	if err := os.WriteFile(path, []byte(`{"repo": {"name": "spark"}}`+"\n"+huge+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := ingestMain([]string{"-in", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "token too long") {
		t.Fatalf("stderr does not name the oversize line:\n%s", stderr.String())
	}
}

// TestIngestQuery runs the default command end to end: ingest a file,
// project a field, count one group.
func TestIngestQuery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.ndjson")
	in := `{"repo": {"name": "spark"}}` + "\n\n" + `{"repo": {"name": "flink"}}` + "\n" + `{"repo": {"name": "spark"}}` + "\n"
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := ingestMain([]string{"-in", path, "-project", "repo.name", "-query", "repo.name=spark", "-count"}, &stdout, &stderr)
	if code != 0 || stdout.String() != "2\n" {
		t.Fatalf("exit %d, stdout %q, want 0 and \"2\\n\"; stderr:\n%s", code, stdout.String(), stderr.String())
	}
}
