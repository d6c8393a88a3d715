package fishstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"fishstore/internal/hlog"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// TestNoForwardLinksInvariant verifies the central guarantee of the chain
// update algorithm (Alg 1): after heavy concurrent ingestion, every hash
// chain is strictly descending in address — no forward links exist.
func TestNoForwardLinksInvariant(t *testing.T) {
	s := openTestStore(t, Options{PageBits: 16, MemPages: 4, Device: storage.NewMem()})
	// One projection with few distinct values (hot chains, heavy CAS
	// contention) plus one with many values.
	idType, _, _ := s.RegisterPSF(psf.Projection("type"))
	idActor, _, _ := s.RegisterPSF(psf.Projection("actor.name"))

	const workers = 8
	const perWorker = 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			for i := 0; i < perWorker; i++ {
				typ := "PushEvent"
				if i%3 == 0 {
					typ = "IssuesEvent"
				}
				if _, err := sess.Ingest([][]byte{genEvent(w*perWorker+i, typ, "spark")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	checkChain := func(prop Property, wantLen int) {
		hops, err := s.ChainGapProfile(prop, 0)
		if err != nil {
			t.Fatal(err)
		}
		if wantLen >= 0 && len(hops) != wantLen {
			t.Fatalf("%v: chain length %d, want %d", prop, len(hops), wantLen)
		}
		for i := 1; i < len(hops); i++ {
			if hops[i].KptAddr >= hops[i-1].KptAddr {
				t.Fatalf("%v: forward link! hop %d at %d >= hop %d at %d",
					prop, i, hops[i].KptAddr, i-1, hops[i-1].KptAddr)
			}
		}
	}
	total := workers * perWorker
	issuesPerWorker := 0
	for i := 0; i < perWorker; i++ {
		if i%3 == 0 {
			issuesPerWorker++
		}
	}
	issues := workers * issuesPerWorker
	checkChain(PropertyString(idType, "PushEvent"), total-issues)
	checkChain(PropertyString(idType, "IssuesEvent"), issues)
	// Per-actor chains (10 distinct actor names in genEvent).
	sum := 0
	for a := 0; a < 10; a++ {
		hops, err := s.ChainGapProfile(PropertyString(idActor, fmt.Sprintf("user%d", a)), 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(hops); i++ {
			if hops[i].KptAddr >= hops[i-1].KptAddr {
				t.Fatal("forward link in actor chain")
			}
		}
		sum += len(hops)
	}
	if sum != total {
		t.Fatalf("actor chains cover %d records, want %d", sum, total)
	}
}

// TestNoForwardLinksBadCAS verifies the invariant holds in the ablation
// mode too (reallocation preserves it by construction).
func TestNoForwardLinksBadCAS(t *testing.T) {
	s := openTestStore(t, Options{BadCAS: true, PageBits: 16, MemPages: 4, Device: storage.NewMem()})
	id, _, _ := s.RegisterPSF(psf.Projection("type"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			for i := 0; i < 100; i++ {
				if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	hops, err := s.ChainGapProfile(PropertyString(id, "PushEvent"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 800 {
		t.Fatalf("chain has %d valid records, want 800", len(hops))
	}
	for i := 1; i < len(hops); i++ {
		if hops[i].KptAddr >= hops[i-1].KptAddr {
			t.Fatal("forward link in badCAS mode")
		}
	}
}

// failingDevice errors on every write after `after` bytes.
type failingDevice struct {
	inner   storage.Device
	after   int64
	written int64
	mu      sync.Mutex
}

var errInjected = errors.New("injected device failure")

func (d *failingDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.written += int64(len(p))
	fail := d.written > d.after
	d.mu.Unlock()
	if fail {
		return 0, errInjected
	}
	return d.inner.WriteAt(p, off)
}

func (d *failingDevice) ReadAt(p []byte, off int64) (int, error) { return d.inner.ReadAt(p, off) }
func (d *failingDevice) Close() error                            { return d.inner.Close() }

// TestFlushFailureSurfaces injects a device write failure and checks that
// ingestion eventually reports it rather than silently losing data.
func TestFlushFailureSurfaces(t *testing.T) {
	dev := &failingDevice{inner: storage.NewMem(), after: 8 << 10}
	s, err := Open(Options{Device: dev, PageBits: 12, MemPages: 2, TableBuckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	var sawErr bool
	for i := 0; i < 2000; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			sawErr = true
			break
		}
	}
	sess.Close()
	if !sawErr {
		// The failure may surface at close instead (async flush).
		if err := s.Close(); err == nil {
			t.Fatal("device failure never surfaced")
		}
		return
	}
	s.Close()
}

// TestScanReadFailureSurfaces checks that index scans report device read
// errors instead of returning partial silence.
func TestScanReadFailureSurfaces(t *testing.T) {
	// Null device: flushed pages are unreadable, so a chain that dips below
	// the head must error.
	s := openTestStore(t, Options{PageBits: 12, MemPages: 2}) // null device
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	for i := 0; i < 300; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if s.HeadAddress() == hlog.BeginAddress {
		t.Skip("log never spilled")
	}
	_, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceIndex},
		func(Record) bool { return true })
	if err == nil {
		t.Fatal("scan over unreadable device succeeded")
	}
}

// TestRecordCountConservation: every ingested record is reachable by a
// full scan exactly once, across page boundaries and fillers.
func TestRecordCountConservation(t *testing.T) {
	s := openTestStore(t, Options{PageBits: 12, MemPages: 2, Device: storage.NewMem()})
	id, _, _ := s.RegisterPSF(psf.MustPredicate("all", `id >= 0`))
	sess := s.NewSession()
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	seen := map[uint64]bool{}
	if _, err := s.Scan(PropertyBool(id, true), ScanOptions{Mode: ScanForceFull},
		func(r Record) bool {
			if seen[r.Address] {
				t.Fatalf("record at %d visited twice", r.Address)
			}
			seen[r.Address] = true
			return true
		}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("full scan found %d records, want %d", len(seen), n)
	}
}
