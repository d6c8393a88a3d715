package fishstore

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

func TestSessionDoubleCloseAndUseAfterClose(t *testing.T) {
	s := openTestStore(t, Options{})
	sess := s.NewSession()
	sess.Close()
	sess.Close() // idempotent
	if _, err := sess.Ingest([][]byte{[]byte(`{}`)}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestIngestEmptyBatch(t *testing.T) {
	s := openTestStore(t, Options{})
	sess := s.NewSession()
	defer sess.Close()
	st, err := sess.Ingest(nil)
	if err != nil || st.Records != 0 {
		t.Fatalf("empty batch: %+v, %v", st, err)
	}
}

func TestIngestWithNoPSFs(t *testing.T) {
	// Raw dump mode: no parsing, no indexing, records still stored.
	s := openTestStore(t, Options{})
	sess := s.NewSession()
	st, err := sess.Ingest([][]byte{[]byte(`{"a": 1}`), []byte(`not even json`)})
	sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || st.Properties != 0 {
		t.Fatalf("stats = %+v", st)
	}
	var n int
	if err := s.Iterate(0, 0, func(Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("iterated %d", n)
	}
}

func TestIngestReaderNDJSON(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	var sb strings.Builder
	want := 0
	for i := 0; i < 100; i++ {
		repo := "flink"
		if i%4 == 0 {
			repo = "spark"
			want++
		}
		sb.Write(genEvent(i, "PushEvent", repo))
		sb.WriteByte('\n')
		if i%10 == 0 {
			sb.WriteByte('\n') // blank lines are skipped
		}
	}
	sess := s.NewSession()
	st, err := sess.IngestReader(strings.NewReader(sb.String()), 7, 0)
	sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 100 {
		t.Fatalf("ingested %d records", st.Records)
	}
	var got int
	s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool { got++; return true })
	if got != want {
		t.Fatalf("matched %d, want %d", got, want)
	}
}

func TestIngestReaderHugeLineRejected(t *testing.T) {
	s := openTestStore(t, Options{})
	sess := s.NewSession()
	defer sess.Close()
	big := strings.Repeat("x", 5000)
	if _, err := sess.IngestReader(strings.NewReader(big), 10, 1024); err == nil {
		t.Fatal("oversized line accepted")
	}
}

func TestConcurrentCheckpointAndIngest(t *testing.T) {
	dir := t.TempDir()
	dev, err := storage.OpenFile(filepath.Join(dir, "log.dat"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Device: dev, PageBits: 13, MemPages: 4, TableBuckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))

	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			for i := 0; i < 200; i++ {
				if _, err := sess.Ingest([][]byte{genEvent(w*1000+i, "PushEvent", "spark")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Checkpoints race with the ingestion above; the barrier serializes.
	for c := 0; c < 3; c++ {
		if err := s.Checkpoint(filepath.Join(dir, "ckpt")); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := s.Checkpoint(filepath.Join(dir, "ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	dev2, err := storage.OpenFileExisting(filepath.Join(dir, "log.dat"))
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := Recover(filepath.Join(dir, "ckpt"), RecoverOptions{Options: Options{Device: dev2, TableBuckets: 256}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var got int
	if _, err := s2.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != workers*200 {
		t.Fatalf("recovered %d records, want %d", got, workers*200)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{PageBits: 5}); err == nil {
		t.Fatal("accepted tiny pages")
	}
	if _, err := Open(Options{MemPages: 1}); err == nil {
		t.Fatal("accepted single frame")
	}
}

func TestStoreDoubleClose(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreFlush(t *testing.T) {
	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 14, MemPages: 4})
	ingestAll(t, s, [][]byte{genEvent(1, "PushEvent", "spark")})
	tail := s.TailAddress()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.log.FlushedUntil() < tail {
		t.Fatalf("FlushedUntil %d < tail %d after Flush", s.log.FlushedUntil(), tail)
	}
}

// gatedDevice holds every write until release is closed, keeping a page's
// flush, and an allocator that waits for it, in flight.
type gatedDevice struct {
	storage.Device
	release chan struct{}
	writes  atomic.Int64
}

func (d *gatedDevice) WriteAt(p []byte, off int64) (int, error) {
	d.writes.Add(1)
	<-d.release
	return d.Device.WriteAt(p, off)
}

// TestRegistrationWhileAllocatorWaits: a worker builds a record, then waits
// in the allocator for an evicted page's flush, refreshing its epoch as it
// waits. That lets a registration reach REST with its safe register
// boundary at the page end, where the waiting allocation then lands. The
// record was built before the registration, yet every record at or past the
// boundary must be indexed by the new PSF (§5.3).
func TestRegistrationWhileAllocatorWaits(t *testing.T) {
	dev := &gatedDevice{Device: storage.NewMem(), release: make(chan struct{})}
	s := openTestStore(t, Options{Device: dev, PageBits: 12, MemPages: 4})
	typeID, _, err := s.RegisterPSF(psf.Projection("type")) // indexes every record from the start
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release := func() { once.Do(func() { close(dev.release) }) }
	t.Cleanup(release) // runs before the store's Close, which flushes

	// Page 4 reuses page 0's frame, so the allocator that opens it waits
	// for page 0's flush, which the gate holds.
	pageEnd := uint64(4) << 12
	sess := s.NewSession()
	defer sess.Close()
	ingested := make(chan error, 1)
	go func() {
		var err error
		for i := 0; err == nil && s.log.TailAddress() < pageEnd; i++ {
			_, err = sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")})
		}
		ingested <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); s.log.TailAddress() < pageEnd || dev.writes.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("no allocation reached the end of page 3 (tail %d)", s.log.TailAddress())
		}
		runtime.Gosched()
	}

	id, res, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ingested:
		t.Fatal("ingest finished before the flush it waits for")
	default:
	}
	if res.SafeRegisterBoundary > pageEnd {
		t.Fatalf("register boundary %d is past the waiting allocation at %d", res.SafeRegisterBoundary, pageEnd)
	}
	release()
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}

	count := func(prop Property) int {
		var n int
		if _, err := s.Scan(prop, ScanOptions{From: res.SafeRegisterBoundary, Mode: ScanForceIndex},
			func(Record) bool {
				n++
				return true
			}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	all, indexed := count(PropertyString(typeID, "PushEvent")), count(PropertyString(id, "spark"))
	if all == 0 || indexed != all {
		t.Fatalf("the new PSF indexes %d of the %d records past its register boundary", indexed, all)
	}
}

// yelpShaped renders review i in the Yelp shape the ledger ingests. Every
// fourth review carries escaped strings in two fields of interest, so the
// parser decodes both into its arena within one record.
func yelpShaped(i int) []byte {
	user, business := fmt.Sprintf("u%08d", i*7919%100000), fmt.Sprintf("b%06d", i%500)
	if i%4 == 0 {
		user, business = fmt.Sprintf(`u\"%07d`, i%1000), fmt.Sprintf(`bé%05d`, i%50)
	}
	return []byte(fmt.Sprintf(
		`{"review_id": "r%012d", "user_id": "%s", "business_id": "%s", "stars": %d, "useful": %d, "funny": %d, "cool": %d, "text": "fine \"food\", slow service", "date": "2018-%02d-%02d"}`,
		i, user, business, 1+i%5, i%13, i%3, i%4, 1+i%12, 1+i%28))
}

// TestIngestAllocatesNothingPerRecord pins the ingest path — parse, PSF
// evaluation, canonicalisation, append and link — at zero allocations for a
// warmed session, with the ledger's PSF shapes: string projections, a number
// projection and two predicates.
func TestIngestAllocatesNothingPerRecord(t *testing.T) {
	// One 4 MB page holds every batch below: a page's frame is allocated on
	// its first use, which is not a per-record cost.
	s := openTestStore(t, Options{PageBits: 22, MemPages: 2, TableBuckets: 1 << 16})
	var business psf.ID
	for _, def := range []psf.Definition{
		psf.Projection("review_id"), psf.Projection("user_id"),
		psf.Projection("business_id"), psf.Projection("stars"),
		psf.MustPredicate("selective", `stars > 3 && useful > 5`),
		psf.MustPredicate("useful", `useful > 10`),
	} {
		id, _, err := s.RegisterPSF(def)
		if err != nil {
			t.Fatal(err)
		}
		if def.Fields[0] == "business_id" {
			business = id
		}
	}
	const size = 64
	next := 0
	batch := make([][]byte, size)
	fill := func() {
		for i := range batch {
			batch[i] = yelpShaped(next)
			next++
		}
	}
	sess := s.NewSession()
	defer sess.Close()
	for range 4 { // warm the session's buffers
		fill()
		if _, err := sess.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	allocs := testing.AllocsPerRun(20, func() {
		st, err := sess.Ingest(batch)
		if err != nil || st.ParseErrors != 0 {
			t.Fatalf("ingest: %v, %d parse errors", err, st.ParseErrors)
		}
	})
	if allocs != 0 {
		t.Errorf("ingest allocates %v per %d-record batch, want 0", allocs, size)
	}

	// The escaped values were indexed decoded: review 4 is bé + "00004".
	var matched int
	if _, err := s.Scan(PropertyString(business, "bé00004"), ScanOptions{Mode: ScanForceIndex},
		func(Record) bool { matched++; return true }); err != nil {
		t.Fatal(err)
	}
	// Review i is in bé00004 when i%4 == 0 and i%50 == 4. The four warm-up
	// batches were ingested once; AllocsPerRun ingests the last batch 21
	// times (one warm-up run, then 20).
	want := 0
	for i := range 5 * size {
		switch {
		case i%4 != 0 || i%50 != 4:
		case i < 4*size:
			want++
		default:
			want += 21
		}
	}
	if matched != want {
		t.Errorf("business bé00004 matched %d records, want %d", matched, want)
	}
}

// TestReevalScanSkipsMissingValues checks that the re-evaluating matcher
// matches the index: a record without the projected field is in no
// property, not even the empty string's.
func TestReevalScanSkipsMissingValues(t *testing.T) {
	s := openTestStore(t, Options{})
	ingestAll(t, s, [][]byte{
		[]byte(`{"name": ""}`), []byte(`{"other": 1}`), []byte(`{"name": "x"}`), []byte(`{"name": null}`),
	})
	// Registered after ingest, so the scan re-evaluates every record.
	id, _, err := s.RegisterPSF(psf.Projection("name"))
	if err != nil {
		t.Fatal(err)
	}
	var matched int
	if _, err := s.Scan(PropertyString(id, ""), ScanOptions{Mode: ScanForceFull},
		func(Record) bool { matched++; return true }); err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Fatalf("empty-string scan matched %d records, want 1", matched)
	}
}
