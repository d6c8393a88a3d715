package fishstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fishstore/internal/hlog"
	"fishstore/internal/pagecache"
	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/storage"
)

// testChainReader builds a chainReader detached from any log, with the
// default SSD profile, for exercising the adaptation logic directly.
func testChainReader() *chainReader {
	profile := storage.DefaultSSDProfile()
	phi := uint64((profile.SyscallCost.Seconds() + profile.RandLatency.Seconds()) * profile.SeqBandwidth)
	return &chainReader{
		useAP:   true,
		tau:     phi,
		minWin:  4096,
		maxWin:  profile.QueueBytes,
		profile: profile,
		avgRec:  1024,
	}
}

func TestChainReaderWindowAdaptation(t *testing.T) {
	cr := testChainReader()
	recSize := 512

	// Walk a chain downward with gaps well below τ: the window must open and
	// grow geometrically up to the cap.
	addr := uint64(100 << 20)
	cr.adapt(addr, recSize)
	if cr.window != 0 {
		t.Fatalf("window opened after a single record: %d", cr.window)
	}
	prev := 0
	for i := 0; i < 16; i++ {
		addr -= uint64(recSize) + cr.tau/4 // gap = τ/4, locality
		cr.adapt(addr, recSize)
		if cr.window < prev {
			t.Fatalf("window shrank under locality: %d -> %d", prev, cr.window)
		}
		prev = cr.window
	}
	if cr.window == 0 {
		t.Fatal("window never opened under sustained locality")
	}
	if cr.window > cr.maxWin {
		t.Fatalf("window %d exceeds cap %d", cr.window, cr.maxWin)
	}
	if cr.window != cr.maxWin {
		t.Fatalf("window %d did not reach cap %d after 16 local hops", cr.window, cr.maxWin)
	}

	// One gap far above τ collapses speculation entirely.
	addr -= 4 * (cr.tau + uint64(cr.avgRec))
	cr.adapt(addr, recSize)
	if cr.window != 0 {
		t.Fatalf("window survived a non-local gap: %d", cr.window)
	}

	// Locality returning reopens it from the bottom, not the old cap.
	addr -= uint64(recSize) + cr.tau/4
	cr.adapt(addr, recSize)
	if cr.window == 0 || cr.window > cr.minWin*4 {
		t.Fatalf("window after collapse+reopen = %d, want small and non-zero", cr.window)
	}
}

func TestChainReaderObservedLatencyClamp(t *testing.T) {
	cr := testChainReader()

	// Before enough samples the profile's τ rules, whatever the readings say.
	cr.observe(time.Microsecond, 4096)
	if got := cr.effTau(); got != cr.tau {
		t.Fatalf("effTau clamped after 1 sample: %d != %d", got, cr.tau)
	}

	// A device answering far below the profile's random-latency floor (a
	// simulator or RAM-backed store) must shrink both τ and the window cap.
	for i := 0; i < 8; i++ {
		cr.observe(time.Microsecond, 4096)
	}
	if got := cr.effTau(); got >= cr.tau {
		t.Fatalf("effTau %d not clamped below profile τ %d", got, cr.tau)
	}
	if got := cr.effMaxWin(); got >= cr.maxWin {
		t.Fatalf("effMaxWin %d not clamped below profile cap %d", got, cr.maxWin)
	}
	if got := cr.effMaxWin(); got < cr.minWin {
		t.Fatalf("effMaxWin %d below the minimum window %d", got, cr.minWin)
	}

	// A device matching its profile keeps the profile's τ: the EWMA recovers
	// once observed fixed costs sit at (or above) the random-latency floor.
	slow := testChainReader()
	for i := 0; i < 8; i++ {
		slow.observe(slow.profile.RandLatency+slow.profile.SyscallCost, 0)
	}
	if got := slow.effTau(); got != slow.tau {
		t.Fatalf("effTau clamped on an honest device: %d != %d", got, slow.tau)
	}
	if got := slow.effMaxWin(); got != slow.maxWin {
		t.Fatalf("effMaxWin clamped on an honest device: %d != %d", got, slow.maxWin)
	}
}

// buildDeviceStore ingests enough records that most of the log lives on the
// device, returning the store, PSF id, and the number of "spark" records.
func buildDeviceStore(t testing.TB, opts Options, n int) (*Store, psf.ID, int) {
	t.Helper()
	if opts.Device == nil {
		opts.Device = storage.NewMem()
	}
	if opts.PageBits == 0 {
		opts.PageBits = 13 // 8KB pages
	}
	if opts.MemPages == 0 {
		opts.MemPages = 2
	}
	s := openTestStore(t, opts)
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	var batch [][]byte
	for i := 0; i < n; i++ {
		repo := "spark"
		if i%3 != 0 {
			repo = fmt.Sprintf("other%d", i%7)
		} else {
			want++
		}
		batch = append(batch, genEvent(i, "PushEvent", repo))
		if len(batch) == 64 {
			ingestAll(t, s, batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		ingestAll(t, s, batch)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.HeadAddress() <= hlog.BeginAddress {
		t.Fatalf("log never spilled to device (head %d)", s.HeadAddress())
	}
	return s, id, want
}

func countScan(t testing.TB, s *Store, id psf.ID, opts ScanOptions) (int, ScanStats) {
	t.Helper()
	got := 0
	st, err := s.Scan(PropertyString(id, "spark"), opts, func(Record) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

func TestScanSpeculationHitAccounting(t *testing.T) {
	s, id, want := buildDeviceStore(t, Options{}, 1200)

	// A hit is a chain hop served without a device read, so no walk can
	// report more hits than hops — whichever way it resolves device records.
	checkHits := func(name string, st ScanStats) {
		t.Helper()
		if st.IndexHops == 0 || st.PrefetchHits > st.IndexHops {
			t.Fatalf("%s: %d prefetch hits over %d hops: %+v", name, st.PrefetchHits, st.IndexHops, st)
		}
	}

	// Cold adaptive index scan: device hops, correctness, and the IO ledger.
	got, st := countScan(t, s, id, ScanOptions{Mode: ScanForceIndex})
	if got != want {
		t.Fatalf("cold scan matched %d, want %d", got, want)
	}
	if st.IOs == 0 || st.ReadBytes == 0 {
		t.Fatalf("on-device scan reported no I/O: %+v", st)
	}
	checkHits("cold", st)

	// Warm scan: the page cache holds the chain's pages now, so hops resolve
	// without device reads and the hits surface in the stats.
	got, st = countScan(t, s, id, ScanOptions{Mode: ScanForceIndex})
	if got != want {
		t.Fatalf("warm scan matched %d, want %d", got, want)
	}
	if st.PrefetchHits == 0 {
		t.Fatalf("warm scan recorded no prefetch/cache hits: %+v", st)
	}
	if st.PageCacheHits == 0 {
		t.Fatalf("warm scan recorded no page-cache hits: %+v", st)
	}
	checkHits("warm", st)

	// The no-prefetch baseline must not touch the cache accounting.
	got, st = countScan(t, s, id, ScanOptions{Mode: ScanIndexNoPrefetch})
	if got != want {
		t.Fatalf("no-prefetch scan matched %d, want %d", got, want)
	}
	if st.PageCacheHits != 0 {
		t.Fatalf("no-prefetch scan used the page cache: %+v", st)
	}
	checkHits("no-prefetch", st)

	// Without a page cache the adaptive walk resolves each hop with up to
	// three reads of the speculation buffer; that is still one hop.
	raw, id2, want2 := buildDeviceStore(t, Options{PageCachePages: -1}, 1200)
	got, st = countScan(t, raw, id2, ScanOptions{Mode: ScanForceIndex})
	if got != want2 {
		t.Fatalf("cacheless scan matched %d, want %d", got, want2)
	}
	if st.PrefetchHits == 0 {
		t.Fatalf("cacheless adaptive scan served no hop from its speculation buffer: %+v", st)
	}
	checkHits("cacheless", st)
}

func TestScanFaultDeviceInjectedLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps on every device read")
	}
	// A device that genuinely stalls each read: the observed fixed cost sits
	// near the profile floor, so the clamp must stay inert and adaptive
	// prefetching must still return exactly the right records.
	dev := storage.NewFaultDevice(nil, storage.FaultConfig{ReadDelay: 200 * time.Microsecond})
	s, id, want := buildDeviceStore(t, Options{Device: dev, PageCachePages: -1}, 600)

	got, st := countScan(t, s, id, ScanOptions{Mode: ScanForceIndex})
	if got != want {
		t.Fatalf("scan over slow device matched %d, want %d", got, want)
	}
	if st.IOs == 0 {
		t.Fatalf("scan over slow device reported no I/O: %+v", st)
	}
	if dev.Stats().Reads == 0 {
		t.Fatal("fault device observed no reads")
	}
}

func TestPageCacheConcurrentScanTruncate(t *testing.T) {
	s, id, _ := buildDeviceStore(t, Options{}, 1500)
	tail := s.TailAddress()
	begin := hlog.BeginAddress

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool { return true }); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceFull, Parallelism: 2}, func(Record) bool { return true }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Ratchet the truncation point forward while scans run: every step drops
	// cached pages below the floor.
	span := tail - begin
	for i := 1; i <= 8; i++ {
		if err := s.TruncateUntil(begin + span*uint64(i)/16); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Post-truncation scans only surface records above the floor.
	floor := s.logBegin()
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(r Record) bool {
		if r.Address < floor {
			t.Errorf("record %d below truncation floor %d", r.Address, floor)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// sparkID extracts the generator index from a genEvent payload.
func sparkID(t testing.TB, payload []byte) int {
	t.Helper()
	var ev struct {
		ID   int `json:"id"`
		Repo struct {
			Name string `json:"name"`
		} `json:"repo"`
	}
	if err := json.Unmarshal(payload, &ev); err != nil {
		t.Fatalf("delivered payload is not a generated event: %v", err)
	}
	if ev.Repo.Name != "spark" {
		t.Fatalf("delivered record %d has repo %q, want spark", ev.ID, ev.Repo.Name)
	}
	return ev.ID
}

// TestFullScanEquivalence drives the one page driver with both matchers
// (key-pointer match over an index-complete log, parse + PSF re-evaluation
// over a half-indexed one), serial and page-parallel, with and without the
// page cache and VerifyOnRead. Every row must deliver exactly the records
// the generator made match, agree with the index on the indexed part, and —
// on the parallel rows — honour early stop and cancellation.
func TestFullScanEquivalence(t *testing.T) {
	const n = 900
	for _, late := range []bool{false, true} {
		for _, workers := range []int{0, 4} {
			for _, noCache := range []bool{false, true} {
				for _, verify := range []bool{false, true} {
					name := fmt.Sprintf("late=%v/par=%d/nocache=%v/verify=%v", late, workers, noCache, verify)
					t.Run(name, func(t *testing.T) { testFullScanEquivalence(t, n, late, workers, noCache, verify) })
				}
			}
		}
	}
}

// testFullScanEquivalence is one row: latePSF registers the PSF after half of
// the n records, so the full scan runs the parse matcher.
func testFullScanEquivalence(t *testing.T, n int, latePSF bool, workers int, noCache, verify bool) {
	opts := Options{Device: storage.NewMem(), PageBits: 13, MemPages: 2, VerifyOnRead: verify}
	if noCache {
		opts.PageCachePages = -1
	}
	s := openTestStore(t, opts)
	var batch [][]byte
	for i := 0; i < n; i++ {
		repo := "spark"
		if i%3 != 0 {
			repo = fmt.Sprintf("other%d", i%7)
		}
		batch = append(batch, genEvent(i, "PushEvent", repo))
	}
	firstIndexed := 0 // generator index of the first record the PSF saw
	if latePSF {
		firstIndexed = n / 2
		ingestAll(t, s, batch[:firstIndexed])
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, batch[firstIndexed:])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.HeadAddress() <= hlog.BeginAddress {
		t.Fatalf("log never spilled to device (head %d)", s.HeadAddress())
	}
	if got := rangeIndexComplete(s.registry.Intervals(id), hlog.BeginAddress, s.TailAddress()); got == latePSF {
		t.Fatalf("rangeIndexComplete over the whole log = %v with latePSF=%v", got, latePSF)
	}
	prop := PropertyString(id, "spark")
	full := ScanOptions{Mode: ScanForceFull, Parallelism: workers}

	// The full scan delivers each matching generator record exactly once.
	addrOf := map[int]uint64{} // generator index -> delivered address
	seen := map[uint64]bool{}
	var last uint64
	st, err := s.Scan(prop, full, func(r Record) bool {
		if seen[r.Address] {
			t.Fatalf("address %d delivered twice", r.Address)
		}
		seen[r.Address] = true
		if workers <= 1 && r.Address <= last {
			t.Fatalf("serial full scan delivered %d after %d", r.Address, last)
		}
		last = r.Address
		addrOf[sparkID(t, r.Payload)] = r.Address
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 {
		if _, ok := addrOf[i]; !ok {
			t.Fatalf("full scan missed generator record %d", i)
		}
	}
	if len(addrOf) != (n+2)/3 || len(seen) != len(addrOf) {
		t.Fatalf("full scan delivered %d addresses / %d distinct records, want %d", len(seen), len(addrOf), (n+2)/3)
	}
	if st.Visited != int64(n) || st.Quarantined != 0 {
		t.Fatalf("full scan visited %d (quarantined %d), want %d and 0", st.Visited, st.Quarantined, n)
	}

	// The index scan delivers exactly the full scan's addresses on the part
	// of the log the PSF was registered for, newest first.
	wantIdx := map[uint64]bool{}
	for i, addr := range addrOf {
		if i >= firstIndexed {
			wantIdx[addr] = true
		}
	}
	last = ^uint64(0)
	gotIdx := 0
	if _, err := s.Scan(prop, ScanOptions{Mode: ScanForceIndex}, func(r Record) bool {
		if !wantIdx[r.Address] {
			t.Fatalf("index scan surfaced %d, not an indexed full-scan match", r.Address)
		}
		if r.Address >= last {
			t.Fatalf("index scan delivered %d after %d", r.Address, last)
		}
		last = r.Address
		gotIdx++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if gotIdx != len(wantIdx) {
		t.Fatalf("index scan matched %d, want %d", gotIdx, len(wantIdx))
	}

	// The adaptive plan (full scan of the unindexed prefix + index scan of
	// the rest) covers the same set.
	gotAuto := 0
	if _, err := s.Scan(prop, ScanOptions{Parallelism: workers}, func(r Record) bool {
		if !seen[r.Address] {
			t.Fatalf("adaptive scan surfaced %d, absent from the full scan", r.Address)
		}
		gotAuto++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if gotAuto != len(seen) {
		t.Fatalf("adaptive scan matched %d, full scan %d", gotAuto, len(seen))
	}

	// Early stop: the callback is never invoked again once it returned false.
	calls := 0
	st, err = s.Scan(prop, full, func(Record) bool {
		calls++
		return calls < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 || !st.Stopped || st.Matched != 5 {
		t.Fatalf("early stop: %d callbacks, stats %+v", calls, st)
	}

	// Cancellation from inside the scan: pages remain unclaimed after the
	// first match, so some worker must observe the cancelled context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := s.ScanContext(ctx, prop, full, func(Record) bool {
		cancel()
		return true
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	if live, protected := s.epochInUse(); live != 0 || protected != 0 {
		t.Fatalf("epoch guards leaked after cancelled scan: live=%d protected=%d", live, protected)
	}
}

// TestChainHopProbesCacheOnce pins the hit ledger of a cold chain hop: one
// probe, one miss, one fill — not a probe and then a second one inside the
// fill.
func TestChainHopProbesCacheOnce(t *testing.T) {
	s, id, _ := buildDeviceStore(t, Options{}, 900)
	slot, ok := s.table.FindEntry(PropertyString(id, "spark").hash())
	if !ok {
		t.Fatal("no chain for the property")
	}
	cur := slot.Address()
	for cur >= s.log.HeadAddress() {
		v, b, ok := s.inMemoryRecordAt(cur)
		if !ok {
			t.Fatalf("link %d does not land on a key pointer", cur)
		}
		cur = v.KeyPointerAt((int((cur-b)/8) - record.HeaderWords) / record.WordsPerPointer).PrevAddress()
	}
	if cur == 0 {
		t.Fatal("chain never reaches the device")
	}
	cache := pagecache.New(64, int(s.log.PageSize()/8))
	cr := newChainReader(nil, s.log, true, cache, nil, nil)
	defer cr.release()
	if _, _, ok, err := cr.record(cur); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 0 || st.Fills != 1 {
		t.Fatalf("one cold hop on a fresh cache: %+v", st)
	}
}

func TestCacheStatsSnapshot(t *testing.T) {
	s, id, _ := buildDeviceStore(t, Options{}, 900)
	countScan(t, s, id, ScanOptions{Mode: ScanForceIndex})
	countScan(t, s, id, ScanOptions{Mode: ScanForceIndex})

	cs := s.CacheStats()
	if !cs.PageCacheEnabled {
		t.Fatalf("page cache disabled by default: %+v", cs)
	}
	if cs.PageCache.Fills == 0 {
		t.Fatalf("page cache never filled: %+v", cs.PageCache)
	}

	off := openTestStore(t, Options{PageCachePages: -1})
	if cso := off.CacheStats(); cso.PageCacheEnabled || cso.PageCache != (pagecache.Stats{}) {
		t.Fatalf("disabled page cache reports state: %+v", cso)
	}
}

// TestCancelChainWalkIssuesNoFurtherReads: a scan cancelled from its
// callback on an on-device record issues no further device read, though
// its next hop leaves the page already read. The store polls the scan's
// context before each device read a chain walk issues: the chain reader on
// the exact-read and page-fill paths, and materialize before reading an
// indirect record's target (the historical chain's newest links are in
// memory, so no chain-reader read comes first). All of them fire well
// inside forEachChainLink's 64-hop poll.
func TestCancelChainWalkIssuesNoFurtherReads(t *testing.T) {
	for _, c := range []struct {
		name       string
		mode       ScanMode
		pages      int
		historical bool
	}{
		{"exact-reads", ScanIndexNoPrefetch, -1, false},
		{"page-cache", ScanForceIndex, 0, false},
		{"indirect-targets", ScanForceIndex, -1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := &readCounter{Device: storage.NewMem()}
			s := openTestStore(t, Options{Device: dev, PageBits: 12, MemPages: 2, PageCachePages: c.pages})
			if c.historical {
				fillToDevice(t, s)
			}
			id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
			if err != nil {
				t.Fatal(err)
			}
			if c.historical {
				if _, err := s.BuildHistoricalIndex(id, 0, s.TailAddress()); err != nil {
					t.Fatal(err)
				}
			} else {
				fillToDevice(t, s)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var atCancel int64 = -1
			_, err = s.ScanContext(ctx, PropertyString(id, "spark"), ScanOptions{Mode: c.mode},
				func(r Record) bool {
					// Cancel near the start of a device page, so the next
					// hops cross to a page not yet read.
					if atCancel < 0 && r.Address < s.log.HeadAddress() && s.log.OffsetOf(r.Address) < 512 {
						cancel()
						atCancel = dev.reads.Load()
					}
					return true
				})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled scan = %v, want context.Canceled", err)
			}
			if atCancel <= 0 {
				t.Fatalf("no device read before the first on-device record (%d); the test is vacuous", atCancel)
			}
			if after := dev.reads.Load() - atCancel; after != 0 {
				t.Fatalf("%d device read(s) issued after the scan was cancelled", after)
			}
		})
	}
}
