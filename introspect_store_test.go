package fishstore_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fishstore"
	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
)

// introspectPayload is a small record with one indexable field.
func introspectPayload(i int) []byte {
	return []byte(fmt.Sprintf(`{"id": %d, "repo": {"name": "repo-%d"}}`, i, i%8))
}

func openIntrospectStore(t testing.TB, opts fishstore.Options) (*fishstore.Store, fishstore.Property) {
	t.Helper()
	s, err := fishstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, fishstore.PropertyString(id, "repo-1")
}

// TestStatsRaceWithTruncation hammers Stats() against concurrent ingestion
// and log truncation. The regression it guards: Stats used to read the tail
// before the truncation point, so a truncation landing between the two loads
// made LogSizeBytes underflow to ~2^64. Run under -race this also proves the
// reads are properly atomic.
func TestStatsRaceWithTruncation(t *testing.T) {
	s, _ := openIntrospectStore(t, fishstore.Options{PageBits: 12, MemPages: 4, Device: storage.NewMem()})
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
	s, prop := openIntrospectStore(t, fishstore.Options{PageBits: 12, MemPages: 4, Device: storage.NewMem()})
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
			if _, err := s.Scan(prop, fishstore.ScanOptions{}, func(fishstore.Record) bool { return true }); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 50; i++ {
		cs, err := s.SampleChains(fishstore.ChainSampleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cs.Links < int64(cs.Chains) {
			t.Fatalf("chain sample: %d links over %d chains", cs.Links, cs.Chains)
		}
		ls, err := s.LogComposition(fishstore.LogSampleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ls.LiveRecords+ls.InvalidRecords != ls.Records {
			t.Fatalf("log sample: live %d + invalid %d != records %d",
				ls.LiveRecords, ls.InvalidRecords, ls.Records)
		}
		ix := s.IndexStats()
		if ix.UsedEntries > ix.Entries {
			t.Fatalf("index sample: used %d > entries %d", ix.UsedEntries, ix.Entries)
		}
		_ = s.PSFStatus()
		_ = s.ScanDecisions()
	}
	stop.Store(true)
	wg.Wait()
}

// TestSamplerOverheadBounded is the acceptance check that a continuously
// running sampler costs at most ~10% ingest throughput: interleaved
// fixed-work ingest windows with and without a background SampleChains +
// LogComposition loop, comparing best-of times so scheduler noise cancels.
func TestSamplerOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const (
		windowBatches = 100
		rounds        = 5
		attempts      = 3
	)
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = introspectPayload(i)
	}

	window := func(s *fishstore.Store) time.Duration {
		sess := s.NewSession()
		defer sess.Close()
		start := time.Now()
		for i := 0; i < windowBatches; i++ {
			if _, err := sess.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}

	for attempt := 1; ; attempt++ {
		s, _ := openIntrospectStore(t, fishstore.Options{PageBits: 16, MemPages: 8, Device: storage.NewMem()})

		var stopSampler atomic.Bool
		var samplerDone sync.WaitGroup
		startSampler := func() {
			stopSampler.Store(false)
			samplerDone.Add(1)
			go func() {
				defer samplerDone.Done()
				for !stopSampler.Load() {
					if _, err := s.SampleChains(fishstore.ChainSampleOptions{}); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.LogComposition(fishstore.LogSampleOptions{}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}

		base, sampled := time.Duration(1<<62), time.Duration(1<<62)
		window(s) // warm-up: page allocation, PSF setup
		for r := 0; r < rounds; r++ {
			if d := window(s); d < base {
				base = d
			}
			startSampler()
			if d := window(s); d < sampled {
				sampled = d
			}
			stopSampler.Store(true)
			samplerDone.Wait()
		}
		s.Close()

		overhead := float64(sampled-base) / float64(base)
		t.Logf("attempt %d: base %v, sampled %v, overhead %.1f%%", attempt, base, sampled, overhead*100)
		if overhead <= 0.10 {
			return
		}
		if attempt >= attempts {
			t.Fatalf("sampler overhead %.1f%% > 10%% across %d attempts", overhead*100, attempts)
		}
	}
}

// TestMemorySinkBoundedUnderHotTracing drives a 1ns slow-op threshold, so
// every ingest batch and scan emits an event. The TraceSink sees every one;
// the flight recorder keeps only its fixed window no matter how many flow.
func TestMemorySinkBoundedUnderHotTracing(t *testing.T) {
	var seen atomic.Int64
	s, prop := openIntrospectStore(t, fishstore.Options{
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
		if _, err := s.Scan(prop, fishstore.ScanOptions{}, func(fishstore.Record) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}

	if n := seen.Load(); n < 600 {
		t.Fatalf("sink saw %d events for 600 slow operations", n)
	}
	if got := len(s.FlightEvents()); got != 256 {
		t.Fatalf("flight recorder retained %d events, want its 256-event window", got)
	}
}
