package fishstore

import (
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
	if s.FlushedUntil() < tail {
		t.Fatalf("FlushedUntil %d < tail %d after Flush", s.FlushedUntil(), tail)
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
