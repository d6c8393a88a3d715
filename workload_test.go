package fishstore

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fishstore/internal/expr"
	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
	"fishstore/internal/telemetry"
)

// TestWorkloadSnapshotAndEndpoints is the acceptance path for the workload
// view: ingest + scan + checkpoint against a real store, then read
// /debug/fishstore/workload and /debug/fishstore/health over HTTP and check
// the per-op latency quantiles and the per-PSF / per-queried-property top-K.
func TestWorkloadSnapshotAndEndpoints(t *testing.T) {
	dir := t.TempDir()
	dev, err := storage.OpenFile(filepath.Join(dir, "log.dat"))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s, err := Open(Options{
		Device: dev, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8,
		Metrics: reg,
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
	defer sess.Close()
	var batch [][]byte
	for i := 0; i < 640; i++ {
		batch = append(batch, genEvent(i, "PushEvent", "spark"))
		if len(batch) == 64 {
			if _, err := sess.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if _, err := s.Scan(Property{PSF: id, Value: expr.StringVal("spark")}, ScanOptions{}, func(Record) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(filepath.Join(dir, "ckpt")); err != nil {
		t.Fatal(err)
	}

	snap := s.tele.Snapshot(5)
	if snap == nil {
		t.Fatal("workload snapshot nil with telemetry enabled")
	}
	byOp := map[string]telemetry.OpSnapshot{}
	for _, op := range snap.Ops {
		byOp[op.Op] = op
	}
	if byOp["ingest_batch"].Count != 10 {
		t.Fatalf("ingest_batch count = %d, want 10", byOp["ingest_batch"].Count)
	}
	if byOp["index_scan"].Count == 0 {
		t.Fatalf("index_scan never recorded: %+v", snap.Ops)
	}
	if byOp["checkpoint"].Count != 1 {
		t.Fatalf("checkpoint count = %d, want 1", byOp["checkpoint"].Count)
	}
	ib := byOp["ingest_batch"]
	if ib.P50Seconds <= 0 || ib.P99Seconds < ib.P50Seconds || ib.MeanSeconds <= 0 {
		t.Fatalf("ingest_batch quantiles not sane: %+v", ib)
	}
	if len(snap.TopPSFs) == 0 || snap.TopPSFs[0].Key != "proj(repo.name)" ||
		snap.TopPSFs[0].Records != 640 {
		t.Fatalf("top PSFs = %+v", snap.TopPSFs)
	}
	if len(snap.TopQueried) == 0 || snap.TopQueried[0].Key != "proj(repo.name)=spark" ||
		snap.TopQueried[0].Records != 640 {
		t.Fatalf("top queried = %+v", snap.TopQueried)
	}

	srv := httptest.NewServer(metrics.NewMux(reg))
	defer srv.Close()
	getJSON := func(path string, out any) {
		t.Helper()
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, res.StatusCode)
		}
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	var wl telemetry.Snapshot
	getJSON("/debug/fishstore/workload", &wl)
	if len(wl.Ops) == 0 || len(wl.TopPSFs) == 0 || len(wl.TopQueried) == 0 {
		t.Fatalf("workload endpoint missing sections: %+v", wl)
	}
	var h Health
	getJSON("/debug/fishstore/health", &h)
	if h.Status != telemetry.StatusOK || h.Degraded {
		t.Fatalf("health = %+v", h)
	}

	// The Prometheus surface exports the collector's own histograms.
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	for _, want := range []string{
		"fishstore_ingest_batch_seconds_count 10\n",
		"fishstore_checkpoint_seconds_count 1\n",
		`fishstore_scan_segment_seconds_bucket{kind="index",le="+Inf"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestWorkloadAlwaysOn: the workload view needs no option and no metrics
// registry, and without an SLO the health verdict carries no burn report.
func TestWorkloadAlwaysOn(t *testing.T) {
	s := openTestStore(t, Options{})
	sess := s.NewSession()
	defer sess.Close()
	if _, err := sess.Ingest([][]byte{genEvent(1, "PushEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	if snap := s.tele.Snapshot(5); len(snap.Ops) == 0 || snap.Ops[0].Count != 1 {
		t.Fatalf("workload snapshot = %+v, want one ingest batch", snap)
	}
	if h := s.health(); h.Status != telemetry.StatusOK || h.SLO != nil {
		t.Fatalf("health without an SLO = %+v", h)
	}
}

// TestWorkloadSLOBreach drives every batch over an absurdly tight target and
// waits for the watchdog to declare a breach through Store.health.
func TestWorkloadSLOBreach(t *testing.T) {
	s := openTestStore(t, Options{
		SLO: &telemetry.SLO{IngestBatchP99: time.Nanosecond, Interval: 2 * time.Millisecond},
	})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	defer sess.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := sess.Ingest([][]byte{genEvent(1, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
		h := s.health()
		if h.Status == telemetry.StatusBreach {
			if h.SLO == nil || len(h.SLO.SLOs) != 1 || h.SLO.SLOs[0].Name != "ingest_batch_p99" {
				t.Fatalf("breach report = %+v", h.SLO)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("watchdog never declared a breach; health = %+v", s.health())
}

// TestWorkloadWatchdogCloseRace races Store.Close against an actively
// ticking watchdog and concurrent Health readers (run under -race).
func TestWorkloadWatchdogCloseRace(t *testing.T) {
	s, err := Open(Options{
		PageBits: 14, MemPages: 4, TableBuckets: 1 << 10,
		SLO: &telemetry.SLO{IngestBatchP99: time.Nanosecond, Interval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 50; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = s.health()
					_ = s.tele.Snapshot(3)
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let the watchdog tick at least once
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil { // double close stays safe
		t.Fatal(err)
	}
}
