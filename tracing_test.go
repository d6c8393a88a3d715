package fishstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
)

func openTracedStore(t testing.TB, opts Options) (*Store, *trace.Tracer) {
	t.Helper()
	tr := trace.New(trace.Options{CaptureAllocs: false})
	opts.Tracer = tr
	return openTestStore(t, opts), tr
}

// spanIndex maps span IDs to their data for tree assertions.
func spanIndex(spans []trace.SpanData) map[uint64]trace.SpanData {
	byID := make(map[uint64]trace.SpanData, len(spans))
	for _, d := range spans {
		byID[d.SpanID] = d
	}
	return byID
}

// childrenOf returns the spans whose parent is the given span, in finish order.
func childrenOf(spans []trace.SpanData, parent trace.SpanData) []trace.SpanData {
	var out []trace.SpanData
	for _, d := range spans {
		if d.ParentID == parent.SpanID && d.TraceID == parent.TraceID {
			out = append(out, d)
		}
	}
	return out
}

func findRoot(t *testing.T, spans []trace.SpanData, name string) trace.SpanData {
	t.Helper()
	for _, d := range spans {
		if d.Name == name && d.Root() {
			return d
		}
	}
	t.Fatalf("no root span %q in %d spans", name, len(spans))
	return trace.SpanData{}
}

// TestIngestBatchIsOneSpan is the ingest half of the acceptance criterion:
// a sampled batch adds exactly one span to the ring, an ingest.batch root,
// whatever its size, and carries the Fig 13 phase breakdown as attributes.
// Per-record children would make a batch of N records cost 5N+1 ring slots
// and evict every earlier span once N reaches a fifth of the ring.
func TestIngestBatchIsOneSpan(t *testing.T) {
	// One 1 MiB page holds the largest batch, so no flush span joins it.
	s, tr := openTracedStore(t, Options{PageBits: 20})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	defer sess.Close()
	for _, n := range []int{1, 1000} {
		batch := make([][]byte, n)
		for i := range batch {
			batch[i] = genEvent(i, "PushEvent", "spark")
		}
		before := tr.Finished()
		if _, err := sess.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if got := tr.Finished() - before; got != 1 {
			t.Fatalf("batch of %d records added %d spans, want 1", n, got)
		}
		spans := tr.Spans()
		root := spans[len(spans)-1]
		if root.Name != "ingest.batch" || !root.Root() {
			t.Fatalf("batch of %d records added span %q (root %v), want an ingest.batch root", n, root.Name, root.Root())
		}
		if got := root.Attr("records"); got != int64(n) {
			t.Errorf("ingest.batch records attr = %v, want %d", got, n)
		}
		var sum time.Duration
		for _, k := range phaseAttrs {
			v, ok := root.Attr(k).(int64)
			if !ok || v < 0 {
				t.Fatalf("batch of %d records: %s = %v, want an integer >= 0", n, k, root.Attr(k))
			}
			sum += time.Duration(v)
		}
		if sum > root.Duration {
			t.Errorf("batch of %d records: phase attrs sum to %v, more than the span's %v", n, sum, root.Duration)
		}
	}
}

// TestAdaptiveScanSpanTree is the scan half of the acceptance criterion: a
// mixed-coverage adaptive scan produces a span tree with the plan decision
// (carrying the Φ cost-model inputs) and one child per executed segment —
// chain walks for indexed intervals, full-scan sweeps for the gaps.
func TestAdaptiveScanSpanTree(t *testing.T) {
	s, tr := openTracedStore(t, Options{})
	// register -> ingest -> deregister -> ingest -> re-register -> ingest
	// leaves the second registration with an index gap, so the adaptive
	// planner emits both segment kinds.
	sess := s.NewSession()
	id1, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess.Ingest([][]byte{genEvent(1, "PushEvent", "spark")})
	s.DeregisterPSF(id1)
	sess.Ingest([][]byte{genEvent(2, "PushEvent", "spark")})
	id2, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess.Ingest([][]byte{genEvent(3, "PushEvent", "spark")})
	sess.Close()
	tr.Reset()

	var got int
	if _, err := s.Scan(PropertyString(id2, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("matched %d, want 3", got)
	}

	spans := tr.Spans()
	root := findRoot(t, spans, "scan")
	if root.Attr("matched") != int64(3) {
		t.Errorf("scan matched attr = %v, want 3", root.Attr("matched"))
	}
	kinds := map[string]int{}
	for _, c := range childrenOf(spans, root) {
		kinds[c.Name]++
	}
	if kinds["scan.plan"] != 1 {
		t.Errorf("scan.plan spans = %d, want 1 (%v)", kinds["scan.plan"], kinds)
	}
	if kinds["scan.segment.index"] < 1 || kinds["scan.segment.full"] < 1 {
		t.Errorf("mixed plan should execute both segment kinds, got %v", kinds)
	}
	for _, d := range spans {
		if d.Name == "scan.plan" {
			if d.Attr("phi_bytes") == nil || d.Attr("bw_seq_bytes_per_sec") == nil {
				t.Errorf("scan.plan missing Φ cost-model attrs: %+v", d.Attrs)
			}
		}
	}
}

// TestChromeExportNestingAndMonotonicity feeds real store spans through the
// Chrome exporter and checks what the acceptance criterion asks of the JSON:
// it parses, events are sorted by monotonically non-decreasing timestamp,
// and every child event nests inside its parent's [ts, ts+dur] window.
func TestChromeExportNestingAndMonotonicity(t *testing.T) {
	s, tr := openTracedStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	var batch [][]byte
	for i := 0; i < 16; i++ {
		batch = append(batch, genEvent(i, "PushEvent", "spark"))
	}
	ingestAll(t, s, batch)
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool { return true }); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var ct trace.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	byID := map[uint64]trace.ChromeEvent{}
	prevTs := -1.0
	for _, e := range ct.TraceEvents {
		if e.Ts < prevTs {
			t.Fatalf("timestamps not monotonic: %f after %f", e.Ts, prevTs)
		}
		prevTs = e.Ts
		if e.Ph != "X" || e.Cat != "fishstore" {
			t.Fatalf("unexpected event envelope: %+v", e)
		}
		byID[asUint(t, e.Args["span_id"])] = e
	}
	const slack = 0.002 // float µs rounding
	for _, e := range ct.TraceEvents {
		pid := asUint(t, e.Args["parent_id"])
		if pid == 0 {
			continue
		}
		p, ok := byID[pid]
		if !ok {
			t.Fatalf("event %s has parent %d outside the export", e.Name, pid)
		}
		if p.Tid != e.Tid {
			t.Errorf("child %s on tid %d, parent %s on tid %d", e.Name, e.Tid, p.Name, p.Tid)
		}
		if e.Ts+slack < p.Ts || e.Ts+e.Dur > p.Ts+p.Dur+slack {
			t.Errorf("child %s [%f,%f] not nested in parent %s [%f,%f]",
				e.Name, e.Ts, e.Ts+e.Dur, p.Name, p.Ts, p.Ts+p.Dur)
		}
	}
}

// asUint normalizes the json round-trip of span IDs (float64 after
// Unmarshal into any, uint64 when read directly).
func asUint(t *testing.T, v any) uint64 {
	t.Helper()
	switch n := v.(type) {
	case float64:
		return uint64(n)
	case uint64:
		return n
	case json.Number:
		u, _ := n.Int64()
		return uint64(u)
	}
	t.Fatalf("unexpected id type %T", v)
	return 0
}

// TestSpanTeeIntoFlightRecorder checks finished root spans join the store's
// event stream as they are, in End order, so the crash flight recorder keeps
// one timeline of events and traced operations.
func TestSpanTeeIntoFlightRecorder(t *testing.T) {
	s, _ := openTracedStore(t, Options{Metrics: metrics.NewRegistry()})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	ingestAll(t, s, [][]byte{genEvent(1, "PushEvent", "spark")})
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool { return true }); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, d := range s.metrics.flight.Snapshot() {
		if d.TraceID != 0 {
			names = append(names, d.Name)
			if !d.Root() || d.Duration <= 0 {
				t.Errorf("span record %s: root=%v duration=%v", d.Name, d.Root(), d.Duration)
			}
		}
	}
	// Ingest ended before the scan started, so the stream must preserve that
	// order; child spans never reach the flight recorder.
	wantOrder := []string{"ingest.batch", "scan"}
	j := 0
	for _, n := range names {
		if j < len(wantOrder) && n == wantOrder[j] {
			j++
		}
		if n == "scan.plan" || n == "scan.segment.index" || n == "scan.segment.full" {
			t.Errorf("child span %s leaked into the flight recorder", n)
		}
	}
	if j != len(wantOrder) {
		t.Fatalf("flight recorder spans = %v, want subsequence %v", names, wantOrder)
	}
	for _, d := range s.metrics.flight.Snapshot() {
		if d.Name == "ingest.batch" {
			line := d.JSON()
			if line["trace_id"] == nil || line["duration_ns"] == nil || line["records"] != int64(1) {
				t.Errorf("ingest.batch flight line missing fields: %v", line)
			}
		}
	}
}

// TestConcurrentIngestSpanIntegrity hammers several ingest sessions in
// parallel (run under -race in CI) and verifies every finished span links to
// a parent inside its own trace — no cross-trace or dangling parents.
func TestConcurrentIngestSpanIntegrity(t *testing.T) {
	s, tr := openTracedStore(t, Options{MemPages: 8})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			for i := 0; i < 16; i++ {
				batch := [][]byte{genEvent(w*1000+i, "PushEvent", fmt.Sprintf("repo-%d", w))}
				if _, err := sess.Ingest(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	spans := tr.Spans()
	byID := spanIndex(spans)
	roots := 0
	for _, d := range spans {
		if d.Root() {
			if d.Name == "ingest.batch" {
				roots++
			}
			continue
		}
		p, ok := byID[d.ParentID]
		if !ok {
			// The ring may have evicted the parent; only fail when it was
			// never finished at all.
			if tr.Dropped() == 0 {
				t.Errorf("span %s has unknown parent %d", d.Name, d.ParentID)
			}
			continue
		}
		if p.TraceID != d.TraceID {
			t.Errorf("span %s trace %d parented across traces to %s trace %d",
				d.Name, d.TraceID, p.Name, p.TraceID)
		}
	}
	if roots != workers*16 {
		t.Errorf("root spans = %d, want %d (one per batch)", roots, workers*16)
	}
}

// TestSamplingDeterminismThroughStore checks the 1-in-N sampler holds at the
// store level: with SampleEvery=4, exactly every 4th root operation (by root
// sequence) is traced, and reopening with the same seed reproduces the same
// selection.
func TestSamplingDeterminismThroughStore(t *testing.T) {
	pick := func() []uint64 {
		tr := trace.New(trace.Options{SampleEvery: 4, Seed: 42})
		s := openTestStore(t, Options{Tracer: tr})
		if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
			t.Fatal(err)
		}
		sess := s.NewSession()
		defer sess.Close()
		for i := 0; i < 64; i++ {
			if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
				t.Fatal(err)
			}
		}
		var ids []uint64
		for _, d := range tr.Spans() {
			if d.Root() && d.Name == "ingest.batch" {
				ids = append(ids, d.TraceID)
			}
		}
		return ids
	}
	a, b := pick(), pick()
	if len(a) == 0 || len(a) > 64/2 {
		t.Fatalf("sampled %d of 64 batches at 1-in-4", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed sampled %d then %d roots", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// readCounter is a caller's device that counts the reads reaching it.
type readCounter struct {
	storage.Device
	reads atomic.Int64
}

func (d *readCounter) ReadAt(p []byte, off int64) (int, error) {
	d.reads.Add(1)
	return d.Device.ReadAt(p, off)
}

// TestDeviceWrappedOnce: with a registry and a tracer both on, the store
// wraps the caller's device in exactly one layer, and each device read of a
// scan is timed once: one fishstore_device_read_seconds sample and one
// storage.read span per read that reaches the device.
func TestDeviceWrappedOnce(t *testing.T) {
	dev := &readCounter{Device: storage.NewMem()}
	tr := trace.New(trace.Options{SampleEvery: 1, BufferSize: 1 << 16})
	// No page cache, so the index scan after the full scan reads the device.
	s := openTestStore(t, Options{Device: dev, PageBits: 12, MemPages: 2, PageCachePages: -1,
		Metrics: metrics.NewRegistry(), Tracer: tr})
	w, ok := s.log.Device().(*storage.Instrumented)
	if !ok || w.Unwrap() != dev {
		t.Fatalf("log device %T does not wrap the caller's device in one step", s.log.Device())
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	fillToDevice(t, s)

	counts := func() (reads, samples, spans int64) {
		m, _ := s.Metrics().Find("fishstore_device_read_seconds")
		for _, d := range tr.Spans() {
			if d.Name == "storage.read" {
				spans++
			}
		}
		return dev.reads.Load(), int64(m.Count), spans
	}
	for _, mode := range []ScanMode{ScanForceFull, ScanForceIndex} {
		r0, h0, s0 := counts()
		if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: mode},
			func(Record) bool { return true }); err != nil {
			t.Fatal(err)
		}
		r1, h1, s1 := counts()
		if r1 == r0 {
			t.Fatalf("mode %v: scan issued no device read; the test is vacuous", mode)
		}
		if h1-h0 != r1-r0 || s1-s0 != r1-r0 {
			t.Fatalf("mode %v: %d device reads, %d histogram samples, %d storage.read spans; want all equal",
				mode, r1-r0, h1-h0, s1-s0)
		}
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("span ring dropped %d spans; counts are incomplete", d)
	}
}
