package fishstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

func TestScanUnknownPSF(t *testing.T) {
	s := openTestStore(t, Options{})
	if _, err := s.Scan(PropertyString(99, "x"), ScanOptions{}, func(Record) bool { return true }); err == nil {
		// With no records the range is empty and the scan legitimately
		// returns before PSF resolution; force a non-empty log.
		ingestAll(t, s, [][]byte{genEvent(1, "PushEvent", "spark")})
		if _, err := s.Scan(PropertyString(99, "x"), ScanOptions{}, func(Record) bool { return true }); err == nil {
			t.Fatal("scan with unknown PSF id succeeded")
		}
	}
}

func TestScanEmptyStore(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("x"))
	st, err := s.Scan(PropertyString(id, "v"), ScanOptions{}, func(Record) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Matched != 0 || st.Visited != 0 {
		t.Fatalf("stats on empty store: %+v", st)
	}
}

func TestScanPropertyWithNoMatches(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	ingestAll(t, s, [][]byte{genEvent(1, "PushEvent", "spark")})
	var got int
	if _, err := s.Scan(PropertyString(id, "nonexistent-repo"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("matched %d for absent value", got)
	}
}

func TestScanPlanSegmentsForDoubleRegistration(t *testing.T) {
	s := openTestStore(t, Options{})
	// register -> ingest -> deregister -> ingest -> re-register -> ingest:
	// the PSF index should cover two disjoint intervals with a gap.
	sess := s.NewSession()
	id1, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess.Ingest([][]byte{genEvent(1, "PushEvent", "spark")})
	s.DeregisterPSF(id1)
	sess.Ingest([][]byte{genEvent(2, "PushEvent", "spark")})
	id2, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess.Ingest([][]byte{genEvent(3, "PushEvent", "spark")})
	sess.Close()

	// The new id's auto scan: full scan covers everything outside its
	// interval; all three records must be found exactly once.
	var got int
	st, err := s.Scan(PropertyString(id2, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("matched %d, want 3 (plan %+v)", got, st.Plan)
	}
	if len(st.Plan) != 2 {
		t.Fatalf("plan = %+v, want full+index", st.Plan)
	}
}

func TestScanDescendingOrderWithinIndexSegment(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	var batch [][]byte
	for i := 0; i < 20; i++ {
		batch = append(batch, genEvent(i, "PushEvent", "spark"))
	}
	ingestAll(t, s, batch)
	var prev uint64 = ^uint64(0)
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceIndex}, func(r Record) bool {
		if r.Address >= prev {
			t.Fatalf("index scan order violation: %d then %d", prev, r.Address)
		}
		prev = r.Address
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFullScanAscendingOrder(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	var batch [][]byte
	for i := 0; i < 20; i++ {
		batch = append(batch, genEvent(i, "PushEvent", "spark"))
	}
	ingestAll(t, s, batch)
	var prev uint64
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceFull}, func(r Record) bool {
		if r.Address <= prev {
			t.Fatalf("full scan order violation: %d then %d", prev, r.Address)
		}
		prev = r.Address
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentScansDuringIngestion(t *testing.T) {
	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 13, MemPages: 3})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Two scanners run continuously while an ingester appends.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var n int
				if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
					n++
					return true
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	sess := s.NewSession()
	for i := 0; i < 400; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	close(stop)
	wg.Wait()

	var final int
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		final++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if final != 400 {
		t.Fatalf("final scan matched %d, want 400", final)
	}
}

// TestIndexScanMatchesBruteForceProperty cross-validates index scans
// against full scans on randomized workloads and page geometries.
func TestIndexScanMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64, pageChoice uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pageBits := 12 + uint(pageChoice%3) // 4KB..16KB pages
		s, err := Open(Options{
			Device: storage.NewMem(), PageBits: pageBits, MemPages: 2, TableBuckets: 64,
		})
		if err != nil {
			return false
		}
		defer s.Close()
		id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
		if err != nil {
			return false
		}
		repos := []string{"a", "b", "c"}
		counts := map[string]int{}
		sess := s.NewSession()
		n := 50 + rng.Intn(150)
		for i := 0; i < n; i++ {
			repo := repos[rng.Intn(len(repos))]
			counts[repo]++
			if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", repo)}); err != nil {
				return false
			}
		}
		sess.Close()
		for _, repo := range repos {
			var idx, full int
			if _, err := s.Scan(PropertyString(id, repo), ScanOptions{Mode: ScanForceIndex},
				func(Record) bool { idx++; return true }); err != nil {
				return false
			}
			if _, err := s.Scan(PropertyString(id, repo), ScanOptions{Mode: ScanForceFull},
				func(Record) bool { full++; return true }); err != nil {
				return false
			}
			if idx != counts[repo] || full != counts[repo] {
				t.Logf("seed %d repo %s: idx %d full %d want %d", seed, repo, idx, full, counts[repo])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	s := openTestStore(t, Options{PageBits: 12}) // 4KB pages
	s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	defer sess.Close()
	big := make([]byte, 8192)
	copy(big, []byte(`{"repo": {"name": "x"}, "pad": "`))
	for i := 40; i < len(big)-2; i++ {
		big[i] = 'a'
	}
	big[len(big)-2] = '"'
	big[len(big)-1] = '}'
	if _, err := sess.Ingest([][]byte{big}); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestScanStatsAccounting(t *testing.T) {
	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 12, MemPages: 2})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	for i := 0; i < 200; i++ {
		repo := "flink"
		if i%10 == 0 {
			repo = "spark"
		}
		sess.Ingest([][]byte{genEvent(i, "PushEvent", repo)})
	}
	sess.Close()

	st, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceIndex},
		func(Record) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Matched != 20 {
		t.Fatalf("matched %d", st.Matched)
	}
	if st.IndexHops < st.Matched {
		t.Fatalf("hops %d < matched %d", st.IndexHops, st.Matched)
	}
	if st.IOs == 0 {
		t.Fatal("disk-resident chain produced zero IOs")
	}

	stFull, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceFull},
		func(Record) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if stFull.FullScanBytes == 0 || stFull.Visited < 200 {
		t.Fatalf("full scan stats: %+v", stFull)
	}
}

func TestChainGapProfile(t *testing.T) {
	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 12, MemPages: 2})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	const n = 100
	for i := 0; i < n; i++ {
		repo := "spark"
		if i%2 == 0 {
			repo = "flink" // interleave so spark chain has gaps
		}
		sess.Ingest([][]byte{genEvent(i, "PushEvent", repo)})
	}
	sess.Close()
	hops, err := s.ChainGapProfile(PropertyString(id, "spark"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != n/2 {
		t.Fatalf("profiled %d hops, want %d", len(hops), n/2)
	}
	if hops[0].Gap != 0 {
		t.Fatal("first hop must have zero gap")
	}
	var nonzero int
	for _, h := range hops[1:] {
		if h.Gap > 0 {
			nonzero++
		}
		if h.SizeBytes <= 0 {
			t.Fatalf("hop with bad size: %+v", h)
		}
	}
	if nonzero == 0 {
		t.Fatal("interleaved chain should have nonzero gaps")
	}
	// Limited profile.
	few, err := s.ChainGapProfile(PropertyString(id, "spark"), 5)
	if err != nil || len(few) != 5 {
		t.Fatalf("limited profile: %d hops, %v", len(few), err)
	}
}

func TestTailPointer(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	prop := PropertyString(id, "spark")
	if _, ok := s.table.FindEntry(prop.hash()); ok {
		t.Fatal("empty chain should have no hash entry")
	}
	ingestAll(t, s, [][]byte{genEvent(1, "PushEvent", "spark")})
	if slot, ok := s.table.FindEntry(prop.hash()); !ok || slot.Address() == 0 {
		t.Fatal("chain head missing after ingest")
	}
}

func TestManyPropertiesPerRecord(t *testing.T) {
	s := openTestStore(t, Options{PageBits: 16})
	var ids []psf.ID
	for i := 0; i < 20; i++ {
		def := psf.MustPredicate(fmt.Sprintf("p%d", i), fmt.Sprintf("id >= %d", i*5))
		id, _, err := s.RegisterPSF(def)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Record with id=50 satisfies predicates p0..p10 (id >= 0..50).
	st := ingestAll(t, s, [][]byte{genEvent(50, "PushEvent", "spark")})
	if st.Properties != 11 {
		t.Fatalf("record on %d chains, want 11", st.Properties)
	}
	for i, id := range ids {
		var got int
		s.Scan(PropertyBool(id, true), ScanOptions{}, func(Record) bool { got++; return true })
		want := 0
		if i <= 10 {
			want = 1
		}
		if got != want {
			t.Fatalf("predicate %d matched %d, want %d", i, got, want)
		}
	}
}
