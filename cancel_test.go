package fishstore

import (
	"context"
	"errors"
	"testing"
	"time"

	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// openDeviceStore builds a store whose log mostly lives on a (fault-wrapped)
// device: tiny pages and a small buffer force most of the ingested range out
// of memory, so scans exercise the device read paths.
func openDeviceStore(t *testing.T, cfg storage.FaultConfig) (*Store, psf.ID, *storage.FaultDevice) {
	t.Helper()
	fd := storage.NewFaultDevice(nil, cfg)
	s := openTestStore(t, Options{Device: fd, PageBits: 12, MemPages: 2, TableBuckets: 1 << 8})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]byte, 300)
	for i := range batch {
		batch[i] = genEvent(i, "PushEvent", "spark")
	}
	ingestAll(t, s, batch)
	return s, id, fd
}

// assertScanStillWorks verifies the post-cancellation contract: the log is
// fsck-clean, no epoch guard leaked, and a fresh scan over the same range
// completes normally.
func assertScanStillWorks(t *testing.T, s *Store, id psf.ID) {
	t.Helper()
	if live, prot := s.epochInUse(); live != 0 || prot != 0 {
		t.Fatalf("epoch leak after cancellation: %d live guards, %d protected", live, prot)
	}
	rep, err := s.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verify after cancellation: %s", rep.Corruption)
	}
	n := 0
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{},
		func(Record) bool { n++; return true }); err != nil {
		t.Fatalf("scan after cancellation: %v", err)
	}
	if n != 300 {
		t.Fatalf("scan after cancellation saw %d records, want 300", n)
	}
}

// TestCancelFullScan cancels a device-resident full scan from inside its
// own callback: the scan must return the context error promptly and leave
// the store clean.
func TestCancelFullScan(t *testing.T) {
	s, id, _ := openDeviceStore(t, storage.FaultConfig{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err := s.ScanContext(ctx, PropertyString(id, "spark"),
		ScanOptions{Mode: ScanForceFull},
		func(Record) bool {
			seen++
			if seen == 3 {
				cancel()
			}
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled full scan = %v, want context.Canceled", err)
	}
	if seen >= 300 {
		t.Fatalf("scan visited all %d records despite mid-scan cancel", seen)
	}
	assertScanStillWorks(t, s, id)
}

// TestCancelIndexScanPrefetchInFlight cancels an index scan while the
// adaptive prefetcher has reads in flight against a slow device. The chain
// reader must observe the context and unwind without leaking guards or
// poisoning the page cache.
func TestCancelIndexScanPrefetchInFlight(t *testing.T) {
	s, id, fd := openDeviceStore(t, storage.FaultConfig{})
	fd.SetReadDelay(300 * time.Microsecond)
	defer fd.SetReadDelay(0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err := s.ScanContext(ctx, PropertyString(id, "spark"),
		ScanOptions{Mode: ScanForceIndex},
		func(Record) bool {
			seen++
			if seen == 2 {
				cancel()
			}
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled index scan = %v, want context.Canceled", err)
	}
	fd.SetReadDelay(0)
	assertScanStillWorks(t, s, id)
}

// TestCancelIndexScanDeadline: a deadline that expires while device reads
// are slow must surface context.DeadlineExceeded through the scan.
func TestCancelIndexScanDeadline(t *testing.T) {
	s, id, fd := openDeviceStore(t, storage.FaultConfig{})
	fd.SetReadDelay(500 * time.Microsecond)
	defer fd.SetReadDelay(0)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := s.ScanContext(ctx, PropertyString(id, "spark"),
		ScanOptions{Mode: ScanForceIndex},
		func(Record) bool { return true })
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline scan = %v, want nil or DeadlineExceeded", err)
	}
	if err == nil {
		t.Skip("scan completed inside the deadline on this machine")
	}
	fd.SetReadDelay(0)
	assertScanStillWorks(t, s, id)
}

// TestCancelIngest: a pre-cancelled context refuses the whole batch; a
// context cancelled between records keeps the prefix and reports it.
func TestCancelIngest(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	defer sess.Close()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.IngestContext(pre, [][]byte{genEvent(0, "PushEvent", "spark")}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ingest = %v, want context.Canceled", err)
	}

	// Cancel mid-batch: the ingested prefix must stay ingested and visible.
	ctx, cancel2 := context.WithCancel(context.Background())
	batch := make([][]byte, 10)
	for i := range batch {
		batch[i] = genEvent(i, "PushEvent", "spark")
	}
	go func() {
		time.Sleep(time.Millisecond)
		cancel2()
	}()
	st, err := sess.IngestContext(ctx, batch)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch cancel = %v, want nil or context.Canceled", err)
	}
	n := 0
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{},
		func(Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != int(st.Records) {
		t.Fatalf("scan sees %d records, ingest stats claim %d", n, st.Records)
	}
	if live, prot := s.epochInUse(); live > 1 || prot != 0 {
		// The open session legitimately owns one (unprotected) guard slot.
		t.Fatalf("epoch state after cancelled ingest: %d live, %d protected", live, prot)
	}
}

// TestCancelCheckpoint: a pre-cancelled checkpoint performs no work and a
// subsequent checkpoint of the same store succeeds and recovers.
func TestCancelCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, id, _ := openDeviceStore(t, storage.FaultConfig{})

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.CheckpointContext(pre, dir); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled checkpoint = %v, want context.Canceled", err)
	}
	if live, prot := s.epochInUse(); live != 0 || prot != 0 {
		t.Fatalf("epoch leak after cancelled checkpoint: %d live, %d protected", live, prot)
	}

	if err := s.Checkpoint(dir); err != nil {
		t.Fatalf("checkpoint after cancelled attempt: %v", err)
	}
	assertScanStillWorks(t, s, id)
}
