package fishstore

import (
	"context"
	"errors"
	"testing"
	"time"

	"fishstore/internal/psf"
)

// --- governor unit tests -------------------------------------------------

func testGovernor(lim Limits) *governor {
	return newGovernor(&lim, newStoreMetrics(nil, nil, nil))
}

func TestGovernorIngestBudget(t *testing.T) {
	g := testGovernor(Limits{MaxInFlightIngestBytes: 100})

	if err := g.admitIngest(nil, 60); err != nil {
		t.Fatalf("first 60 bytes: %v", err)
	}
	// Over budget with MaxWait 0: immediate ErrBusy, budget untouched.
	if err := g.admitIngest(nil, 60); !errors.Is(err, ErrBusy) {
		t.Fatalf("second 60 bytes = %v, want ErrBusy", err)
	}
	if got := g.inflightBytes.Load(); got != 60 {
		t.Fatalf("failed admission leaked budget: in-flight = %d, want 60", got)
	}
	g.releaseIngest(60)
	if err := g.admitIngest(nil, 100); err != nil {
		t.Fatalf("after release: %v", err)
	}
	g.releaseIngest(100)
	if g.rejects.Load() != 1 {
		t.Fatalf("rejects = %d, want 1", g.rejects.Load())
	}
}

// TestGovernorOversizedBatch: a batch bigger than the entire budget must be
// admitted when the budget is idle — otherwise it could never run at all.
func TestGovernorOversizedBatch(t *testing.T) {
	g := testGovernor(Limits{MaxInFlightIngestBytes: 100})
	if err := g.admitIngest(nil, 5000); err != nil {
		t.Fatalf("oversized batch on idle budget: %v", err)
	}
	// But not while anything else is in flight.
	if err := g.admitIngest(nil, 5000); !errors.Is(err, ErrBusy) {
		t.Fatalf("second oversized batch = %v, want ErrBusy", err)
	}
	g.releaseIngest(5000)
	if got := g.inflightBytes.Load(); got != 0 {
		t.Fatalf("in-flight after release = %d, want 0", got)
	}
}

// TestGovernorWaiterAdmitted: a waiter parked in waitSlow is admitted when a
// release frees capacity within MaxWait.
func TestGovernorWaiterAdmitted(t *testing.T) {
	g := testGovernor(Limits{MaxInFlightIngestBytes: 100, MaxWait: 5 * time.Second})
	if err := g.admitIngest(nil, 100); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- g.admitIngest(nil, 50) }()

	select {
	case err := <-admitted:
		t.Fatalf("waiter admitted (%v) while budget full", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.releaseIngest(100)
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("waiter after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after release")
	}
	if g.waits.Load() != 1 {
		t.Fatalf("waits = %d, want 1", g.waits.Load())
	}
}

// TestGovernorWaitCancelled: ctx cancellation aborts a parked waiter with
// the context's error, not ErrBusy.
func TestGovernorWaitCancelled(t *testing.T) {
	g := testGovernor(Limits{MaxInFlightIngestBytes: 100, MaxWait: time.Minute})
	if err := g.admitIngest(nil, 100); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	admitted := make(chan error, 1)
	go func() { admitted <- g.admitIngest(ctx, 50) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-admitted:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
}

// TestGovernorAdmitAllocs: the admission fast path (admit + release, under
// and over budget) must not allocate — it runs once per batch and per scan.
func TestGovernorAdmitAllocs(t *testing.T) {
	g := testGovernor(Limits{
		MaxInFlightIngestBytes: 100,
		MaxConcurrentScans:     1,
	})
	allocs := testing.AllocsPerRun(200, func() {
		if g.admitIngest(nil, 10) == nil {
			g.releaseIngest(10)
		}
		_ = g.admitIngest(nil, 500) // over-budget reject path
		if g.admitScan(nil) == nil {
			g.releaseScan()
		}
	})
	if allocs != 0 {
		t.Fatalf("admission fast path allocates %.1f per op, want 0", allocs)
	}
}

// --- store-level admission tests -----------------------------------------

// TestStoreScanAdmission: with MaxConcurrentScans 1, a scan parked inside
// its callback blocks a second scan, which fails ErrBusy at MaxWait 0 and is
// counted by the governor.
func TestStoreScanAdmission(t *testing.T) {
	s := openTestStore(t, Options{Limits: &Limits{MaxConcurrentScans: 1}})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = genEvent(i, "PushEvent", "spark")
	}
	ingestAll(t, s, batch)

	inCb := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		_, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceIndex},
			func(Record) bool {
				inCb <- struct{}{}
				<-release
				return false
			})
		scanDone <- err
	}()
	<-inCb

	if n := s.gov.activeScans.Load(); n != 1 {
		t.Fatalf("active scans = %d, want 1", n)
	}
	_, err = s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceIndex},
		func(Record) bool { return true })
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("second scan = %v, want ErrBusy", err)
	}
	close(release)
	if err := <-scanDone; err != nil {
		t.Fatalf("first scan: %v", err)
	}

	// The slot is free again.
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{},
		func(Record) bool { return true }); err != nil {
		t.Fatalf("scan after release: %v", err)
	}
	if rejects, active := s.gov.rejects.Load(), s.gov.activeScans.Load(); rejects != 1 || active != 0 {
		t.Fatalf("governor: %d rejects, %d active; want 1 reject, 0 active", rejects, active)
	}
}
