package fishstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fishstore/internal/introspect"
	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
)

// introspectPayload is a small record with one indexable field.
func introspectPayload(i int) []byte {
	return []byte(fmt.Sprintf(`{"id": %d, "repo": {"name": "repo-%d"}}`, i, i%8))
}

func openIntrospectStore(t testing.TB, opts Options) (*Store, Property) {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, PropertyString(id, "repo-1")
}

// TestStatsRaceWithTruncation hammers Stats() against concurrent ingestion
// and log truncation. The regression it guards: Stats used to read the tail
// before the truncation point, so a truncation landing between the two loads
// made LogSizeBytes underflow to ~2^64. Run under -race this also proves the
// reads are properly atomic.
func TestStatsRaceWithTruncation(t *testing.T) {
	s, _ := openIntrospectStore(t, Options{PageBits: 12, MemPages: 4, Device: storage.NewMem()})
	defer s.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := s.NewSession()
		defer sess.Close()
		for i := 0; !stop.Load(); i++ {
			if _, err := sess.Ingest([][]byte{introspectPayload(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			// Truncate to a tail observed before the call: always legal, and
			// it lands between Stats' two loads often enough to catch the
			// ordering bug within a few thousand iterations.
			if err := s.TruncateUntil(s.TailAddress()); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.LogSizeBytes > st.TotalAppendedBytes {
			t.Fatalf("torn Stats read: LogSizeBytes %d > TotalAppendedBytes %d",
				st.LogSizeBytes, st.TotalAppendedBytes)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestSamplersConcurrentWithIngest runs every introspection sampler in a
// tight loop against live ingestion and scans: -race coverage for the
// epoch-protected chain walk, the log composition walk, and the lock-free
// occupancy/status reads.
func TestSamplersConcurrentWithIngest(t *testing.T) {
	s, prop := openIntrospectStore(t, Options{PageBits: 12, MemPages: 4, Device: storage.NewMem()})
	defer s.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := s.NewSession()
		defer sess.Close()
		for i := 0; !stop.Load(); i++ {
			if _, err := sess.Ingest([][]byte{introspectPayload(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := s.Scan(prop, ScanOptions{}, func(Record) bool { return true }); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 50; i++ {
		cs, err := s.sampleChains(chainSampleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cs.Links < int64(cs.Chains) {
			t.Fatalf("chain sample: %d links over %d chains", cs.Links, cs.Chains)
		}
		ls, err := s.logComposition(logSampleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ls.LiveRecords+ls.InvalidRecords != ls.Records {
			t.Fatalf("log sample: live %d + invalid %d != records %d",
				ls.LiveRecords, ls.InvalidRecords, ls.Records)
		}
		ix := s.indexStats()
		if ix.UsedEntries > ix.Entries {
			t.Fatalf("index sample: used %d > entries %d", ix.UsedEntries, ix.Entries)
		}
		_ = s.registry.Status()
		_ = s.ScanDecisions()
	}
	stop.Store(true)
	wg.Wait()
}

// TestSamplerWorkBounded pins the samplers' work caps, which are what keep a
// continuously running sampler cheap beside ingestion: sampleChains walks at
// most MaxChains chains and MaxLinksPerChain links of each, counting the rest
// as skipped or truncated, and logComposition stops within one record of
// MaxBytes and says so.
func TestSamplerWorkBounded(t *testing.T) {
	s, _ := openIntrospectStore(t, Options{PageBits: 12, MemPages: 4, Device: storage.NewMem()})
	defer s.Close()
	// 400 equal-size records (three-digit ids) on 8 chains of 50 links, most
	// of them already on the device.
	const records, chains, maxLinks = 400, 8, 10
	sess := s.NewSession()
	for i := 100; i < 100+records; i++ {
		if _, err := sess.Ingest([][]byte{introspectPayload(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	sample := func(opts chainSampleOptions) *introspect.ChainSnapshot {
		cs, err := s.sampleChains(opts)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	all := sample(chainSampleOptions{})
	if all.Chains != chains || all.Links != records || all.SkippedChains != 0 || all.TruncatedChains != 0 {
		t.Fatalf("uncapped sample: %d chains, %d links, %d skipped, %d truncated; want %d chains, %d links, none skipped or truncated",
			all.Chains, all.Links, all.SkippedChains, all.TruncatedChains, chains, records)
	}
	few := sample(chainSampleOptions{MaxChains: 3})
	if few.Chains != 3 || few.SkippedChains != chains-3 {
		t.Errorf("MaxChains 3: walked %d chains, skipped %d; want 3 and %d", few.Chains, few.SkippedChains, chains-3)
	}
	short := sample(chainSampleOptions{MaxLinksPerChain: maxLinks})
	if short.TruncatedChains != chains || short.Links != chains*maxLinks {
		t.Errorf("MaxLinksPerChain %d: %d truncated chains, %d links; want %d and %d",
			maxLinks, short.TruncatedChains, short.Links, chains, chains*maxLinks)
	}

	compose := func(opts logSampleOptions) *introspect.LogSnapshot {
		ls, err := s.logComposition(opts)
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}
	whole := compose(logSampleOptions{})
	if whole.Truncated || whole.LiveRecords == 0 {
		t.Fatalf("uncapped log walk: truncated %v, %d live records", whole.Truncated, whole.LiveRecords)
	}
	recBytes := uint64(whole.LiveBytes / whole.LiveRecords)
	capBytes := whole.WalkedBytes/2 + 3 // not record- or page-aligned
	part := compose(logSampleOptions{MaxBytes: capBytes})
	t.Logf("log walk: %d bytes whole, %d under a %d-byte cap (%d-byte records)",
		whole.WalkedBytes, part.WalkedBytes, capBytes, recBytes)
	if !part.Truncated {
		t.Errorf("MaxBytes %d below the %d-byte log: snapshot not marked truncated", capBytes, whole.WalkedBytes)
	}
	if part.WalkedBytes > capBytes+recBytes {
		t.Errorf("MaxBytes %d: walked %d bytes, more than one %d-byte record past the cap",
			capBytes, part.WalkedBytes, recBytes)
	}
}

// TestMemorySinkBoundedUnderHotTracing drives a 1ns slow-op threshold, so
// every ingest batch and scan emits an event. The TraceSink sees every one;
// the flight recorder keeps only its fixed window no matter how many flow.
func TestMemorySinkBoundedUnderHotTracing(t *testing.T) {
	var seen atomic.Int64
	s, prop := openIntrospectStore(t, Options{
		PageBits:        12,
		MemPages:        4,
		Device:          storage.NewMem(),
		Metrics:         metrics.NewRegistry(),
		TraceSink:       func(trace.SpanData) { seen.Add(1) },
		SlowOpThreshold: time.Nanosecond,
	})
	defer s.Close()

	sess := s.NewSession()
	for i := 0; i < 500; i++ {
		if _, err := sess.Ingest([][]byte{introspectPayload(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	for i := 0; i < 100; i++ {
		if _, err := s.Scan(prop, ScanOptions{}, func(Record) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}

	if n := seen.Load(); n < 600 {
		t.Fatalf("sink saw %d events for 600 slow operations", n)
	}
	if got := len(s.metrics.flight.Snapshot()); got != 256 {
		t.Fatalf("flight recorder retained %d events, want its 256-event window", got)
	}
}
