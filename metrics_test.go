package fishstore

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
	"fishstore/internal/telemetry"
)

// TestConcurrentIngestMetrics runs N ingesting sessions while a goroutine
// polls Store.Metrics(), asserting counters only move forward and that the
// final totals equal the sum of per-session IngestStats. Run with -race.
func TestConcurrentIngestMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := openTestStore(t, Options{Metrics: reg, CollectPhaseStats: true})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}

	const workers, batches, perBatch = 4, 25, 16
	var wantRecords, wantBytes, wantProps int64
	var totalsMu sync.Mutex

	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		var lastRecords, lastBytes float64
		for {
			snap := s.Metrics()
			r := snap.Value("fishstore_ingest_records_total")
			b := snap.Value("fishstore_ingest_bytes_total")
			if r < lastRecords || b < lastBytes {
				t.Errorf("counter went backwards: records %g -> %g, bytes %g -> %g",
					lastRecords, r, lastBytes, b)
				return
			}
			lastRecords, lastBytes = r, b
			select {
			case <-stopPoll:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			var recs, byts, props int64
			for b := 0; b < batches; b++ {
				batch := make([][]byte, perBatch)
				for i := range batch {
					batch[i] = genEvent(w*10000+b*perBatch+i, "PushEvent", "spark")
				}
				st, err := sess.Ingest(batch)
				if err != nil {
					t.Error(err)
					return
				}
				recs += int64(st.Records)
				byts += st.Bytes
				props += int64(st.Properties)
			}
			totalsMu.Lock()
			wantRecords += recs
			wantBytes += byts
			wantProps += props
			totalsMu.Unlock()
		}(w)
	}
	wg.Wait()
	close(stopPoll)
	<-pollDone

	snap := s.Metrics()
	if got := int64(snap.Value("fishstore_ingest_records_total")); got != wantRecords {
		t.Fatalf("records_total = %d, want %d (sum of per-session stats)", got, wantRecords)
	}
	if got := int64(snap.Value("fishstore_ingest_bytes_total")); got != wantBytes {
		t.Fatalf("bytes_total = %d, want %d", got, wantBytes)
	}
	if got := int64(snap.Value("fishstore_ingest_properties_total")); got != wantProps {
		t.Fatalf("properties_total = %d, want %d", got, wantProps)
	}
	// Metrics agree with the legacy Stats() counters.
	st := s.Stats()
	if st.IngestedRecords != wantRecords || st.IngestedBytes != wantBytes {
		t.Fatalf("Stats() = %+v disagrees with session sums (%d records, %d bytes)",
			st, wantRecords, wantBytes)
	}
	// Batch latency histogram saw every batch; phase histograms are populated.
	m, ok := snap.Find("fishstore_ingest_batch_seconds")
	if !ok || m.Count != workers*batches {
		t.Fatalf("batch_seconds count = %d, want %d", m.Count, workers*batches)
	}
	for _, phase := range []string{"parse", "psf_eval", "memcpy", "index", "others"} {
		pm, ok := snap.Find("fishstore_ingest_phase_seconds", metrics.L("phase", phase))
		if !ok || pm.Count == 0 {
			t.Fatalf("phase histogram %q empty", phase)
		}
	}
	if rm, _ := snap.Find("fishstore_ingest_record_bytes"); int64(rm.Count) != wantRecords {
		t.Fatalf("record_bytes count = %d, want %d", rm.Count, wantRecords)
	}
}

// TestScanAndDeviceMetrics exercises the scan, prefetch, and device families
// against an on-device store.
func TestScanAndDeviceMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	dev := storage.NewSimSSD(storage.NewMem(), storage.DefaultSSDProfile())
	s := openTestStore(t, Options{Metrics: reg, Device: dev, PageBits: 12, MemPages: 2})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 400; i++ { // spill well beyond the 2-page buffer
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	// Device() must unwrap the instrumentation and return the SimSSD.
	if got := storage.Unwrap(s.log.Device()); got != storage.Device(dev) {
		t.Fatalf("Device() = %T, want the configured *SimSSD", got)
	}

	var matched int
	st, err := s.Scan(PropertyString(id, "spark"), ScanOptions{},
		func(Record) bool { matched++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if matched != 400 {
		t.Fatalf("matched %d, want 400", matched)
	}

	snap := s.Metrics()
	if got := snap.Value("fishstore_scans_total"); got != 1 {
		t.Fatalf("scans_total = %g", got)
	}
	if got := int64(snap.Value("fishstore_scan_matched_records_total")); got != 400 {
		t.Fatalf("scan_matched = %d", got)
	}
	if got := snap.Value("fishstore_scan_segments_total", metrics.L("kind", "indexed")); got != 1 {
		t.Fatalf("indexed segments = %g", got)
	}
	if got := int64(snap.Value("fishstore_scan_io_reads_total")); got != st.IOs {
		t.Fatalf("io_reads_total = %d, ScanStats.IOs = %d", got, st.IOs)
	}
	// The chain is dense (every record matches), so the adaptive prefetcher
	// must have grown a window and served hops from its buffer.
	if snap.Value("fishstore_prefetch_grows_total") == 0 {
		t.Fatal("prefetcher never grew a window on a dense chain")
	}
	hits := int64(snap.Value("fishstore_prefetch_hits_total"))
	if hits == 0 || st.PrefetchHits == 0 {
		t.Fatalf("prefetch hits: metric %d, ScanStats %d — both should be > 0", hits, st.PrefetchHits)
	}
	// Device reads flowed through the instrumented wrapper.
	if m, _ := snap.Find("fishstore_device_read_seconds"); m.Count == 0 {
		t.Fatal("device read histogram empty after on-device scan")
	}
	if m, _ := snap.Find("fishstore_device_write_seconds"); m.Count == 0 {
		t.Fatal("device write histogram empty after page flushes")
	}
	// Hash-table gauges are live.
	if snap.Value("fishstore_hashtable_used_entries") == 0 {
		t.Fatal("hashtable_used_entries gauge is zero")
	}
	if snap.Value("fishstore_ingest_records_total") != 400 {
		t.Fatal("ingest counter mismatch")
	}
}

// TestMetricsHandlerEndToEnd serves a live store's registry over HTTP and
// checks the Prometheus exposition.
func TestMetricsHandlerEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	s := openTestStore(t, Options{Metrics: reg})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	if _, err := sess.Ingest([][]byte{genEvent(1, "PushEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	srv := httptest.NewServer(metrics.NewMux(reg))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(res.Body)
	res.Body.Close()
	out := body.String()
	for _, want := range []string{
		"# TYPE fishstore_ingest_records_total counter",
		"fishstore_ingest_records_total 1",
		"# TYPE fishstore_ingest_batch_seconds histogram",
		"fishstore_ingest_batch_seconds_count 1",
		"fishstore_psf_active 1",
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestOneHistogramServesEveryView: each operation is timed once, into the
// collector's histogram, and every surface reads that same object — after N
// ingest batches and M checkpoints the Prometheus _count, the workload
// snapshot and the SLO watchdog's cumulative count all say N (and M).
func TestOneHistogramServesEveryView(t *testing.T) {
	reg := metrics.NewRegistry()
	s := openTestStore(t, Options{Metrics: reg, Device: storage.NewMem(), SLO: &telemetry.SLO{
		IngestBatchP99: time.Hour, CheckpointP99: time.Hour, IndexScanP95: time.Hour,
		Interval: time.Millisecond}})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	const n, m = 7, 3
	sess := s.NewSession()
	for i := 0; i < n; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	for i := 0; i < m; i++ {
		if err := s.Checkpoint(t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceIndex}, func(Record) bool { return true }); err != nil {
		t.Fatal(err)
	}

	var text bytes.Buffer
	if err := metrics.WriteText(&text, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ops := map[string]int64{}
	for _, op := range s.tele.Snapshot(1).Ops {
		ops[op.Op] = op.Count
	}
	for _, c := range []struct {
		series, op, slo string
		want            int64
	}{
		{"fishstore_ingest_batch_seconds_count", "ingest_batch", "ingest_batch_p99", n},
		{"fishstore_checkpoint_seconds_count", "checkpoint", "checkpoint_p99", m},
		{`fishstore_scan_segment_seconds_count{kind="index"}`, "index_scan", "index_scan_p95", 1},
	} {
		if line := fmt.Sprintf("%s %d\n", c.series, c.want); !strings.Contains(text.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
		if ops[c.op] != c.want {
			t.Errorf("workload snapshot %s count = %d, want %d", c.op, ops[c.op], c.want)
		}
		deadline := time.Now().Add(5 * time.Second)
		for watchdogOps(s, c.slo) != c.want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := watchdogOps(s, c.slo); got != c.want {
			t.Errorf("watchdog %s cumulative count = %d, want %d", c.slo, got, c.want)
		}
	}
	for _, gone := range []string{"fishstore_workload_ops_total", "fishstore_workload_latency_seconds"} {
		if strings.Contains(text.String(), gone) {
			t.Errorf("/metrics still exports the duplicate %s", gone)
		}
	}
}

func watchdogOps(s *Store, slo string) int64 {
	for _, b := range s.health().SLO.SLOs {
		if b.Name == slo {
			return b.Ops
		}
	}
	return -1
}

// TestDisabledMetricsIsInert confirms a store without a registry produces an
// empty snapshot and an unwrapped device.
func TestDisabledMetricsIsInert(t *testing.T) {
	dev := storage.NewMem()
	s := openTestStore(t, Options{Device: dev})
	sess := s.NewSession()
	if _, err := sess.Ingest([][]byte{genEvent(1, "PushEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if n := len(s.Metrics().Families); n != 0 {
		t.Fatalf("disabled store produced %d metric families", n)
	}
	if storage.Unwrap(s.log.Device()) != storage.Device(dev) {
		t.Fatalf("disabled store wrapped its device: %T", storage.Unwrap(s.log.Device()))
	}
	if s.metrics.reg.Enabled() {
		t.Fatal("disabled store's registry reports enabled")
	}
}

// TestDefaultRegistryAggregatesStores checks SetDefaultMetricsRegistry routes
// stores opened without an explicit registry into the shared one.
func TestDefaultRegistryAggregatesStores(t *testing.T) {
	reg := metrics.NewRegistry()
	SetDefaultMetricsRegistry(reg)
	defer SetDefaultMetricsRegistry(nil)

	var stores []*Store
	for i := 0; i < 2; i++ {
		s := openTestStore(t, Options{})
		sess := s.NewSession()
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		stores = append(stores, s)
	}
	if got := int64(reg.Snapshot().Value("fishstore_ingest_records_total")); got != 2 {
		t.Fatalf("shared registry records_total = %d, want 2 (one per store)", got)
	}
	if stores[0].metrics.reg != stores[1].metrics.reg {
		t.Fatal("stores did not share the default registry")
	}
}

// TestRecoverMetrics checks Recover wires metrics and reports replay work.
func TestRecoverMetrics(t *testing.T) {
	dev := storage.NewMem()
	s := openTestStore(t, Options{Device: dev, PageBits: 12, MemPages: 2})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 50; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 80; i++ { // durable suffix beyond the checkpoint
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	r, info, err := Recover(dir, RecoverOptions{Options: Options{Device: dev, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info.ReplayedRecords != 30 {
		t.Fatalf("replayed %d, want 30", info.ReplayedRecords)
	}
	snap := r.Metrics()
	if got := int64(snap.Value("fishstore_recovery_replayed_records_total")); got != 30 {
		t.Fatalf("recovery_replayed metric = %d, want 30", got)
	}
	if m, _ := snap.Find("fishstore_recovery_seconds"); m.Count != 1 {
		t.Fatalf("recovery_seconds count = %d, want 1", m.Count)
	}
}
