package fishstore

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
	"fishstore/internal/telemetry"
	"fishstore/internal/trace"
)

// pageReads is a caller's device that counts the reads reaching each page.
type pageReads struct {
	storage.Device
	pageBits uint
	mu       sync.Mutex
	reads    map[uint64]int
}

func (d *pageReads) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	if d.reads != nil {
		d.reads[uint64(off)>>d.pageBits]++
	}
	d.mu.Unlock()
	return d.Device.ReadAt(p, off)
}

// count starts counting afresh and returns what was counted so far.
func (d *pageReads) count() map[uint64]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	got := d.reads
	d.reads = make(map[uint64]int)
	return got
}

// checkpointedLog opens a store with opts, ingests records [0, n) with a
// checkpoint after the first `ckpt` of them, calls beforeClose (if set),
// closes the store, and returns the checkpoint directory. The store indexes
// repo.name from the start and a predicate PSF registered halfway, so that
// an auto scan over the whole log splits into a full and an index part.
func checkpointedLog(t *testing.T, opts Options, n, ckpt int, beforeClose func(s *Store, name, pushes psf.ID)) string {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	name, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	var pushes psf.ID
	dir := filepath.Join(t.TempDir(), "ckpt")
	sess := s.NewSession()
	for i := 0; i < n; i++ {
		if i == n/2 {
			if pushes, _, err = s.RegisterPSF(psf.MustPredicate("pushes", `type == "PushEvent"`)); err != nil {
				t.Fatal(err)
			}
		}
		if i == ckpt {
			if err := s.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
		}
		typ := "PushEvent"
		if i%3 == 0 {
			typ = "IssuesEvent"
		}
		if _, err := sess.Ingest([][]byte{genEvent(i, typ, fmt.Sprintf("repo-%d", i%4))}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if beforeClose != nil {
		beforeClose(s, name, pushes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoverBuildsLikeOpen: Open and Recover build a store from Options the
// same way. A recovered store used to run without its page cache, ignoring
// PageCachePages; it must also honour Metrics, TraceSink, Tracer, SLO and
// SlowOpThreshold.
func TestRecoverBuildsLikeOpen(t *testing.T) {
	opts := Options{Device: storage.NewMem(), PageBits: 12, MemPages: 4, TableBuckets: 1 << 8,
		PageCachePages: 8, SLO: &telemetry.SLO{IngestBatchP99: time.Hour},
		// Every batch is at least this slow.
		SlowOpThreshold: time.Nanosecond}
	sopts, sobs := observe(opts)
	s, err := Open(sopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	requireBuiltFromOptions(t, "opened", s, sobs)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ropts, robs := observe(opts)
	r, _, err := Recover(dir, RecoverOptions{Options: ropts})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireBuiltFromOptions(t, "recovered", r, robs)
}

// observed records what a store reports into the Metrics registry, the
// Tracer and the TraceSink that observe gives it.
type observed struct {
	reg    *metrics.Registry
	tr     *trace.Tracer
	mu     sync.Mutex
	events map[string]bool
}

// observe returns opts with a fresh Metrics registry, a fresh Tracer and a
// TraceSink that records event names, and what they observe.
func observe(opts Options) (Options, *observed) {
	o := &observed{reg: metrics.NewRegistry(), tr: trace.New(trace.Options{}), events: map[string]bool{}}
	opts.Metrics = o.reg
	opts.Tracer = o.tr
	opts.TraceSink = func(d trace.SpanData) {
		o.mu.Lock()
		o.events[d.Name] = true
		o.mu.Unlock()
	}
	return opts, o
}

// requireBuiltFromOptions checks the wiring of the Options that
// TestRecoverBuildsLikeOpen gives both stores: the page cache is on, ingest
// reports into Options.Metrics, batches land as ingest.batch roots in
// Options.Tracer, the health report carries the SLO watchdog's, and events
// (ingest.slow_batch past SlowOpThreshold among them) reach
// Options.TraceSink.
func requireBuiltFromOptions(t *testing.T, which string, s *Store, obs *observed) {
	t.Helper()
	if !s.CacheStats().PageCacheEnabled {
		t.Errorf("%s store has no page cache", which)
	}
	sess := s.NewSession()
	n, start := 0, s.TailAddress()
	for ; s.TailAddress() < start+5<<12 || s.TailAddress()%(1<<12) == 0; n++ {
		if _, err := sess.Ingest([][]byte{genEvent(n, "PushEvent", "spark")}); err != nil {
			t.Fatalf("%s store: record %d: %v", which, n, err)
		}
	}
	sess.Close()
	if got := obs.reg.Snapshot().Value("fishstore_ingest_records_total"); got != float64(n) {
		t.Errorf("%s store: Options.Metrics counts %v ingested records, want %d", which, got, n)
	}
	batches := 0
	for _, d := range obs.tr.Spans() {
		if d.Name == "ingest.batch" && d.Root() {
			batches++
		}
	}
	if batches != n {
		t.Errorf("%s store: Options.Tracer holds %d ingest.batch roots, want %d", which, batches, n)
	}
	if h := s.health(); h.SLO == nil || len(h.SLO.SLOs) != 1 {
		t.Errorf("%s store: health carries SLO report %+v, want the watchdog's one objective", which, h.SLO)
	}

	obs.mu.Lock()
	defer obs.mu.Unlock()
	for _, ev := range []string{"hlog.flush", "ingest.slow_batch"} {
		if !obs.events[ev] {
			t.Errorf("%s store: Options.TraceSink never received %s", which, ev)
		}
	}
}

// TestRecoverReadsSuffixOnce: recovery reads what it replays and what it
// reloads. Recover reads each page of the suffix beyond the checkpoint once,
// in the replay's one device pass, and each of the last MemPages pages once
// more to reload it into the log buffer; it neither walks the suffix twice
// nor reads more than MemPages pages to reopen the log.
func TestRecoverReadsSuffixOnce(t *testing.T) {
	mem := storage.NewMem()
	opts := Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8}
	dir := checkpointedLog(t, opts, 300, 150, nil)

	dev := &pageReads{Device: mem, pageBits: opts.PageBits}
	dev.count()
	opts.Device = dev
	r, info, err := Recover(dir, RecoverOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	got := dev.count()
	defer r.Close()

	first, tail := r.log.PageOf(info.CheckpointTail), r.log.PageOf(info.RecoveredTail)
	firstMem := tail + 1 - uint64(opts.MemPages)
	if tail < uint64(opts.MemPages) || firstMem <= first || first == 0 {
		t.Fatalf("checkpoint tail %d, recovered tail %d: want pages before the suffix, and a suffix longer than the buffer",
			info.CheckpointTail, info.RecoveredTail)
	}
	want := make(map[uint64]int)
	for p := first; p <= tail; p++ {
		want[p] = 1
	}
	for p := firstMem; p < tail; p++ {
		want[p]++
	}
	if r.log.OffsetOf(info.RecoveredTail) != 0 {
		want[tail]++
	}
	if len(got) != len(want) {
		t.Fatalf("Recover read pages %v, want %v", got, want)
	}
	for p, n := range want {
		if got[p] != n {
			t.Fatalf("Recover read pages %v, want %v", got, want)
		}
	}
}

// TestRecoveredStoreScansWholeLog: a recovered store holds in memory the
// pages the store held before it closed. With MemPages larger than the log,
// its index, full and auto scans over the whole log read no page from the
// device and return what they returned before the store closed.
func TestRecoveredStoreScansWholeLog(t *testing.T) {
	mem := storage.NewMem()
	opts := Options{Device: mem, PageBits: 12, MemPages: 64, TableBuckets: 1 << 8}

	type query struct {
		prop Property
		mode ScanMode
	}
	var queries []query
	results := func(s *Store) [][]Record {
		var out [][]Record
		for _, q := range queries {
			var recs []Record
			if _, err := s.Scan(q.prop, ScanOptions{Mode: q.mode}, func(r Record) bool {
				// The scan lends the payload: keep a copy.
				recs = append(recs, Record{Address: r.Address, Payload: bytes.Clone(r.Payload)})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(recs, func(a, b Record) int { return int(a.Address) - int(b.Address) })
			out = append(out, recs)
		}
		return out
	}

	var before [][]Record
	dir := checkpointedLog(t, opts, 300, 150, func(s *Store, name, pushes psf.ID) {
		for _, mode := range []ScanMode{ScanForceIndex, ScanForceFull, ScanAuto} {
			queries = append(queries, query{PropertyString(name, "repo-1"), mode})
		}
		queries = append(queries, query{PropertyBool(pushes, true), ScanAuto})
		before = results(s)
	})

	dev := &pageReads{Device: mem, pageBits: opts.PageBits}
	opts.Device = dev
	r, info, err := Recover(dir, RecoverOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.log.PageOf(info.RecoveredTail) == 0 || r.log.PageOf(info.RecoveredTail)+1 > uint64(opts.MemPages) {
		t.Fatalf("recovered tail %d: want a log of several pages, smaller than the buffer", info.RecoveredTail)
	}
	dev.count()
	after := results(r)
	if reads := dev.count(); len(reads) != 0 {
		t.Fatalf("scans of the recovered store read pages %v from the device: recovery left them out of the buffer", reads)
	}
	for i, q := range queries {
		if len(before[i]) == 0 {
			t.Fatalf("query %d (%v, %v) matched nothing before close", i, q.prop, q.mode)
		}
		if !slices.EqualFunc(before[i], after[i], func(a, b Record) bool {
			return a.Address == b.Address && string(a.Payload) == string(b.Payload)
		}) {
			t.Fatalf("query %d (%v, %v): %d records after recovery, %d before close, or different ones",
				i, q.prop, q.mode, len(after[i]), len(before[i]))
		}
	}
}

// TestRecoverCountsReplayedEntries: the table is instrumented before the
// suffix is replayed, so fishstore_hashtable_entries_created_total counts
// the entries replay creates, one per property new in the suffix.
func TestRecoverCountsReplayedEntries(t *testing.T) {
	mem := storage.NewMem()
	opts := Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	const perPhase = 10
	repos := func(from int) [][]byte {
		var recs [][]byte
		for i := from; i < from+perPhase; i++ {
			recs = append(recs, genEvent(i, "PushEvent", fmt.Sprintf("repo-%d", i)))
		}
		return recs
	}
	ingestAll(t, s, repos(0))
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, repos(perPhase))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	opts.Metrics = metrics.NewRegistry()
	r, info, err := Recover(dir, RecoverOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info.ReplayedRecords != perPhase {
		t.Fatalf("replayed %d records, want %d", info.ReplayedRecords, perPhase)
	}
	if got := r.metrics.htEntries.Load(); got != perPhase {
		t.Fatalf("entries created during recovery = %d, want %d", got, perPhase)
	}
}
