package fishstore_test

import (
	"testing"

	"fishstore"
	"fishstore/internal/storage"
)

// TestPrefetchNotAPessimization pins §7.2's promise that adaptive
// prefetching never loses to exact reads, as counted work on the SimSSD
// virtual clock rather than a ratio of two wall-clock timings. On the scan
// store, an index scan with prefetching (ScanForceIndex) must surface the
// same records as the exact-read scan (ScanIndexNoPrefetch) for no more
// virtual device time, with the page cache on or off and with the PSF
// covering the whole log or only its second half. The exact-read scan runs
// first, so the prefetching scan starts from a cold page cache. With a cache
// smaller than the log, the index scan must also evict nothing.
func TestPrefetchNotAPessimization(t *testing.T) {
	for _, c := range []struct {
		name       string
		pageBits   uint
		cachePages int
		registerAt int
	}{
		{"cache default, full index", 0, 0, 0},
		{"cache default, half index", 0, 0, 30},
		{"cache off, full index", 0, -1, 0},
		{"cache off, half index", 0, -1, 30},
		// 16 one-page shards under a log of ~40 pages: once a shard's
		// frame is taken, hops to its other pages read the AP window.
		{"cache smaller than the log", 16, 16, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := storage.NewSimSSD(storage.NewMem(), storage.DefaultSSDProfile())
			s, prop := openScanStore(t, dev, c.registerAt, func(o *fishstore.Options) {
				o.PageCachePages = c.cachePages
				if c.pageBits != 0 {
					o.PageBits = c.pageBits
				}
			})
			defer s.Close()
			// Settle the background page flushes so no write lands on the
			// virtual clock during a scan.
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			scan := func(mode fishstore.ScanMode) (fishstore.ScanStats, storage.Stats) {
				dev.ResetClock()
				st, err := s.Scan(prop, fishstore.ScanOptions{Mode: mode},
					func(fishstore.Record) bool { return true })
				if err != nil {
					t.Fatal(err)
				}
				return st, dev.Stats()
			}
			exact, exactIO := scan(fishstore.ScanIndexNoPrefetch)
			evicted := s.CacheStats().PageCache.Evictions
			ap, apIO := scan(fishstore.ScanForceIndex)
			t.Logf("exact: %d matched, %d reads, %.2f ms virtual; prefetch: %d matched, %d reads, %.2f ms virtual",
				exact.Matched, exactIO.Reads, float64(exactIO.SimTimeNanos)/1e6,
				ap.Matched, apIO.Reads, float64(apIO.SimTimeNanos)/1e6)
			if exact.Matched == 0 || ap.Matched != exact.Matched {
				t.Fatalf("prefetching scan matched %d records, exact-read scan %d", ap.Matched, exact.Matched)
			}
			if apIO.SimTimeNanos > exactIO.SimTimeNanos {
				t.Errorf("prefetching scan cost %d ns of virtual device time, exact reads %d ns",
					apIO.SimTimeNanos, exactIO.SimTimeNanos)
			}
			// A chain hop fills only free frames: it never evicts a page.
			if got := s.CacheStats().PageCache.Evictions; got != evicted {
				t.Errorf("index scan evicted %d cached pages", got-evicted)
			}
		})
	}
}
