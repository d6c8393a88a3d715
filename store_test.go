package fishstore

import (
	"fishstore/internal/hlog"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// genEvent builds a small Github-like JSON record.
func genEvent(i int, typ, repo string) []byte {
	return []byte(fmt.Sprintf(
		`{"id": %d, "type": %q, "actor": {"id": %d, "name": "user%d"}, "repo": {"id": %d, "name": %q}, "public": %v}`,
		i, typ, 100+i%10, i%10, 500+i%5, repo, i%2 == 0))
}

func openTestStore(t testing.TB, opts Options) *Store {
	t.Helper()
	if opts.PageBits == 0 {
		opts.PageBits = 14 // 16KB pages to exercise page crossings
	}
	if opts.MemPages == 0 {
		opts.MemPages = 4
	}
	if opts.TableBuckets == 0 {
		opts.TableBuckets = 1 << 10
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func ingestAll(t testing.TB, s *Store, batch [][]byte) IngestStats {
	t.Helper()
	sess := s.NewSession()
	defer sess.Close()
	st, err := sess.Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestIngestAndIndexScanInMemory(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}

	var batch [][]byte
	wantSpark := 0
	for i := 0; i < 200; i++ {
		repo := "spark"
		if i%4 != 0 {
			repo = "flink"
		} else {
			wantSpark++
		}
		batch = append(batch, genEvent(i, "PushEvent", repo))
	}
	st := ingestAll(t, s, batch)
	if st.Records != 200 {
		t.Fatalf("ingested %d records", st.Records)
	}
	if st.Properties != 200 { // every record has a repo.name
		t.Fatalf("properties = %d", st.Properties)
	}

	var got int
	scanSt, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(r Record) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantSpark {
		t.Fatalf("scan matched %d, want %d (stats %+v)", got, wantSpark, scanSt)
	}
	// The whole range was registered before ingestion: one indexed segment.
	if len(scanSt.Plan) != 1 || !scanSt.Plan[0].Indexed {
		t.Fatalf("plan = %+v", scanSt.Plan)
	}
}

func TestPredicatePSFOnlyIndexesMatches(t *testing.T) {
	s := openTestStore(t, Options{})
	def := psf.MustPredicate("spark-push", `repo.name == "spark" && type == "PushEvent"`)
	id, _, err := s.RegisterPSF(def)
	if err != nil {
		t.Fatal(err)
	}
	var batch [][]byte
	want := 0
	for i := 0; i < 100; i++ {
		typ := "PushEvent"
		repo := "spark"
		switch i % 3 {
		case 1:
			typ = "IssuesEvent"
		case 2:
			repo = "heron"
		default:
			want++
		}
		batch = append(batch, genEvent(i, typ, repo))
	}
	ing := ingestAll(t, s, batch)
	if ing.Properties != want {
		t.Fatalf("indexed %d properties, want %d (selective predicate)", ing.Properties, want)
	}
	var got int
	if _, err := s.Scan(PropertyBool(id, true), ScanOptions{}, func(r Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("matched %d, want %d", got, want)
	}
}

func TestRecordOnMultipleChains(t *testing.T) {
	s := openTestStore(t, Options{})
	idRepo, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	idType, _, _ := s.RegisterPSF(psf.Projection("type"))
	defPub := psf.MustPredicate("public", `public == true`)
	idPub, _, _ := s.RegisterPSF(defPub)

	batch := [][]byte{genEvent(0, "PushEvent", "spark")} // i=0: public=true
	ing := ingestAll(t, s, batch)
	if ing.Properties != 3 {
		t.Fatalf("record should be on 3 chains, got %d", ing.Properties)
	}
	for _, prop := range []Property{
		PropertyString(idRepo, "spark"),
		PropertyString(idType, "PushEvent"),
		PropertyBool(idPub, true),
	} {
		var got int
		if _, err := s.Scan(prop, ScanOptions{}, func(Record) bool { got++; return true }); err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("prop %v matched %d", prop, got)
		}
	}
}

func TestOnDemandIndexingBoundaries(t *testing.T) {
	s := openTestStore(t, Options{})
	// Phase 1: ingest with no PSFs (raw dump).
	var first [][]byte
	for i := 0; i < 50; i++ {
		first = append(first, genEvent(i, "PushEvent", "spark"))
	}
	sess := s.NewSession()
	if _, err := sess.Ingest(first); err != nil {
		t.Fatal(err)
	}

	// Phase 2: register; only later records are indexed.
	id, res, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	if res.SafeRegisterBoundary == 0 {
		t.Fatal("no register boundary")
	}
	var second [][]byte
	for i := 50; i < 100; i++ {
		second = append(second, genEvent(i, "PushEvent", "spark"))
	}
	if _, err := sess.Ingest(second); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	// Auto scan must see all 100 via full scan of the early gap + index.
	var got int
	scanSt, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("auto scan matched %d, want 100; plan %+v", got, scanSt.Plan)
	}
	if len(scanSt.Plan) != 2 || scanSt.Plan[0].Indexed || !scanSt.Plan[1].Indexed {
		t.Fatalf("plan = %+v, want [full, index]", scanSt.Plan)
	}

	// Index-only scan sees only the second half.
	got = 0
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceIndex}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("index-only matched %d, want 50", got)
	}

	// Full-only scan sees all.
	got = 0
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceFull}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("full scan matched %d, want 100", got)
	}
}

func TestDeregistrationClosesInterval(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	batch := [][]byte{genEvent(1, "PushEvent", "spark")}
	if _, err := sess.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeregisterPSF(id); err != nil {
		t.Fatal(err)
	}
	// Post-deregistration records are not indexed.
	if st, err := sess.Ingest([][]byte{genEvent(2, "PushEvent", "spark")}); err != nil || st.Properties != 0 {
		t.Fatalf("post-deregistration ingest: %+v, %v", st, err)
	}
	sess.Close()

	var got int
	scanSt, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("auto scan after deregistration matched %d, want 2 (plan %+v)", got, scanSt.Plan)
	}
}

func TestEarlyStopTouch(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	var batch [][]byte
	for i := 0; i < 100; i++ {
		batch = append(batch, genEvent(i, "PushEvent", "spark"))
	}
	ingestAll(t, s, batch)
	var got int
	st, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return got < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 || !st.Stopped {
		t.Fatalf("early stop: got %d, stopped %v", got, st.Stopped)
	}
}

func TestScanSpillsToDisk(t *testing.T) {
	dev := storage.NewMem()
	s := openTestStore(t, Options{Device: dev, PageBits: 12, MemPages: 2})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))

	sess := s.NewSession()
	const n = 300 // ~300 records of ~150B each >> 8KB of memory
	want := 0
	for i := 0; i < n; i++ {
		repo := "flink"
		if i%3 == 0 {
			repo = "spark"
			want++
		}
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", repo)}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if s.HeadAddress() == hlog.BeginAddress {
		t.Fatal("log never spilled to disk; test is vacuous")
	}

	for _, mode := range []ScanMode{ScanAuto, ScanForceIndex, ScanIndexNoPrefetch, ScanForceFull} {
		var got int
		_, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: mode}, func(r Record) bool {
			got++
			return true
		})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if got != want {
			t.Fatalf("mode %d matched %d, want %d", mode, got, want)
		}
	}
}

func TestAdaptivePrefetchFewerIOs(t *testing.T) {
	dev := storage.NewSimSSD(storage.NewMem(), storage.DefaultSSDProfile())
	s := openTestStore(t, Options{Device: dev, PageBits: 12, MemPages: 2})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))

	sess := s.NewSession()
	for i := 0; i < 400; i++ {
		// Every record matches: maximal chain locality.
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	var apStats, noStats ScanStats
	var err error
	apStats, err = s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceIndex}, func(Record) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	noStats, err = s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanIndexNoPrefetch}, func(Record) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if apStats.Matched != noStats.Matched {
		t.Fatalf("AP %d vs no-AP %d matches", apStats.Matched, noStats.Matched)
	}
	if apStats.IOs >= noStats.IOs {
		t.Fatalf("adaptive prefetching issued %d IOs, no-AP %d — expected fewer", apStats.IOs, noStats.IOs)
	}
}

func TestConcurrentIngestMultipleSessions(t *testing.T) {
	s := openTestStore(t, Options{PageBits: 14, MemPages: 4, Device: storage.NewMem()})
	id, _, _ := s.RegisterPSF(psf.Projection("type"))

	const workers = 4
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			for i := 0; i < perWorker; i += 10 {
				var batch [][]byte
				for j := 0; j < 10; j++ {
					batch = append(batch, genEvent(w*perWorker+i+j, "PushEvent", "spark"))
				}
				if _, err := sess.Ingest(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var got int
	if _, err := s.Scan(PropertyString(id, "PushEvent"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != workers*perWorker {
		t.Fatalf("matched %d, want %d", got, workers*perWorker)
	}
}

func TestBadCASModeStillCorrect(t *testing.T) {
	s := openTestStore(t, Options{BadCAS: true, PageBits: 16, MemPages: 4, Device: storage.NewMem()})
	id, _, _ := s.RegisterPSF(psf.Projection("type"))

	const workers = 4
	const perWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			var batch [][]byte
			for i := 0; i < perWorker; i++ {
				batch = append(batch, genEvent(w*perWorker+i, "PushEvent", "spark"))
			}
			if _, err := sess.Ingest(batch); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()

	var got int
	if _, err := s.Scan(PropertyString(id, "PushEvent"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != workers*perWorker {
		t.Fatalf("matched %d, want %d", got, workers*perWorker)
	}
	// Contention should have produced at least some reallocation.
	if s.Stats().InvalidatedRecs == 0 {
		t.Log("note: no CAS failures observed (timing-dependent)")
	}
}

func TestSubscription(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sub := s.Subscribe(PropertyString(id, "spark"), SubscribeOptions{Buffer: 128})
	defer sub.Cancel()

	var batch [][]byte
	want := 0
	for i := 0; i < 50; i++ {
		repo := "flink"
		if i%5 == 0 {
			repo = "spark"
			want++
		}
		batch = append(batch, genEvent(i, "PushEvent", repo))
	}
	ingestAll(t, s, batch)

	got := 0
	for len(sub.Records()) > 0 {
		<-sub.Records()
		got++
	}
	if got != want {
		t.Fatalf("subscription delivered %d, want %d", got, want)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d", sub.Dropped())
	}
}

func TestSubscriptionCancelAndOverflow(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sub := s.Subscribe(PropertyString(id, "spark"), SubscribeOptions{Buffer: 1})

	var batch [][]byte
	for i := 0; i < 10; i++ {
		batch = append(batch, genEvent(i, "PushEvent", "spark"))
	}
	ingestAll(t, s, batch)
	if sub.Dropped() != 9 {
		t.Fatalf("dropped = %d, want 9 with buffer 1", sub.Dropped())
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	// Post-cancel ingestion must not panic or deliver.
	ingestAll(t, s, batch)
}

func TestMalformedRecordsStoredUnindexed(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	st := ingestAll(t, s, [][]byte{
		[]byte(`{"repo": {"name": tru}}`), // bad literal in a requested field
		genEvent(1, "PushEvent", "spark"),
	})
	if st.ParseErrors != 1 || st.Records != 2 {
		t.Fatalf("stats = %+v", st)
	}
	var got int
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("matched %d", got)
	}
}

func TestParallelFullScan(t *testing.T) {
	s := openTestStore(t, Options{PageBits: 12, MemPages: 4, Device: storage.NewMem()})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	var batch [][]byte
	want := 0
	for i := 0; i < 500; i++ {
		repo := "flink"
		if i%7 == 0 {
			repo = "spark"
			want++
		}
		batch = append(batch, genEvent(i, "PushEvent", repo))
	}
	ingestAll(t, s, batch)
	var mu sync.Mutex
	got := 0
	if _, err := s.Scan(PropertyString(id, "spark"),
		ScanOptions{Mode: ScanForceFull, Parallelism: 4},
		func(Record) bool {
			mu.Lock()
			got++
			mu.Unlock()
			return true
		}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parallel full scan matched %d, want %d", got, want)
	}
}

func TestRangeBucketPSF(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.RangeBucket("actor.id", 5))
	// actor.id = 100 + i%10 → buckets 100 and 105.
	var batch [][]byte
	for i := 0; i < 60; i++ {
		batch = append(batch, genEvent(i, "PushEvent", "spark"))
	}
	ingestAll(t, s, batch)
	var low, high int
	s.Scan(PropertyNumber(id, 100), ScanOptions{}, func(Record) bool { low++; return true })
	s.Scan(PropertyNumber(id, 105), ScanOptions{}, func(Record) bool { high++; return true })
	if low != 30 || high != 30 {
		t.Fatalf("buckets = %d/%d, want 30/30", low, high)
	}
}

func TestScanRangeRestriction(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	var addrs []uint64
	for i := 0; i < 20; i++ {
		before := s.TailAddress()
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, before)
	}
	sess.Close()
	// Scan only records 5..14 (addresses addrs[5]..addrs[15]).
	var got int
	if _, err := s.Scan(PropertyString(id, "spark"),
		ScanOptions{From: addrs[5], To: addrs[15]},
		func(Record) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("range scan matched %d, want 10", got)
	}
}

func TestLookupUsesIndex(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("actor.name"))
	var batch [][]byte
	for i := 0; i < 30; i++ {
		batch = append(batch, genEvent(i, "PushEvent", "spark"))
	}
	ingestAll(t, s, batch)
	var got int
	st, err := s.Lookup(PropertyString(id, "user3"), func(Record) bool { got++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("lookup matched %d, want 3", got)
	}
	if st.FullScanBytes != 0 {
		t.Fatal("lookup must not full scan")
	}
}

func TestStatsCounters(t *testing.T) {
	s := openTestStore(t, Options{})
	s.RegisterPSF(psf.Projection("repo.name"))
	batch := [][]byte{genEvent(0, "PushEvent", "spark"), genEvent(1, "PushEvent", "flink")}
	ingestAll(t, s, batch)
	st := s.Stats()
	if st.IngestedRecords != 2 || st.IndexedProperties != 2 || st.IngestedBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LogSizeBytes == 0 || st.TableStats.UsedEntries == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValueRegionPSF(t *testing.T) {
	// A range-bucket PSF's value is computed, not a payload substring, so it
	// must flow through the value region and still be retrievable.
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.RangeBucket("id", 1000))
	var batch [][]byte
	for i := 0; i < 10; i++ {
		batch = append(batch, genEvent(i, "PushEvent", "spark"))
	}
	ingestAll(t, s, batch)
	var got int
	if _, err := s.Scan(PropertyNumber(id, 0), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("value-region PSF matched %d, want 10", got)
	}
}

func TestPhaseStatsCollected(t *testing.T) {
	s := openTestStore(t, Options{CollectPhaseStats: true})
	s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	var batch [][]byte
	for i := 0; i < 50; i++ {
		batch = append(batch, genEvent(i, "PushEvent", "spark"))
	}
	if _, err := sess.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	ph := sess.Phases()
	sess.Close()
	if ph.Records != 50 || ph.Total() == 0 {
		t.Fatalf("phases = %+v", ph)
	}
	if ph.Parse == 0 || ph.Memcpy == 0 {
		t.Fatalf("phase timers empty: %+v", ph)
	}
}

func TestRandomizedWorkloadCrossCheck(t *testing.T) {
	// Cross-validate index scans against brute force over random records.
	rng := rand.New(rand.NewSource(7))
	s := openTestStore(t, Options{PageBits: 13, MemPages: 3, Device: storage.NewMem()})
	idRepo, _, _ := s.RegisterPSF(psf.Projection("repo.name"))

	repos := []string{"spark", "flink", "heron", "storm", "kafka"}
	counts := map[string]int{}
	sess := s.NewSession()
	for i := 0; i < 500; i++ {
		repo := repos[rng.Intn(len(repos))]
		counts[repo]++
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", repo)}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	for _, repo := range repos {
		var got int
		if _, err := s.Scan(PropertyString(idRepo, repo), ScanOptions{}, func(Record) bool {
			got++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got != counts[repo] {
			t.Fatalf("repo %s: matched %d, want %d", repo, got, counts[repo])
		}
	}
}
