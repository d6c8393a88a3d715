package fishstore

import (
	"errors"
	"fmt"
	"testing"

	"fishstore/internal/hlog"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

func logFullPayload(i int) []byte {
	return []byte(fmt.Sprintf(
		`{"id": %d, "type": "PushEvent", "repo": {"name": "spark", "stars": %d}, "pad": "%064d"}`,
		i, i%97, i))
}

// TestDiskFullDrill is the disk-full survival integration drill from the
// overload-protection contract: a capacity-capped device forces ENOSPC
// mid-flush, the store enters the managed ErrLogFull state (never the sticky
// degraded state), retention-based recovery reclaims space, ingestion
// resumes, and afterwards the index scan and the full scan agree exactly on
// the surviving live range.
func TestDiskFullDrill(t *testing.T) {
	fd := storage.NewFaultDevice(nil, storage.FaultConfig{CapacityBytes: 20 << 10})
	s, err := Open(Options{
		Device: fd, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8,
		Retention: &Retention{MaxLiveBytes: 8 << 10, AutoRecover: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}

	// Ingest far more than the device holds. With AutoRecover the workers
	// never see ErrLogFull stick: each batch either lands or triggers a
	// reclaim cycle and then lands.
	sess := s.NewSession()
	defer sess.Close()
	const total = 400
	for i := 0; i < total; i++ {
		if _, err := sess.Ingest([][]byte{logFullPayload(i)}); err != nil {
			// A single transient ErrLogFull is tolerated only if the next
			// attempt succeeds (the reclaim lock was contended).
			if !errors.Is(err, ErrLogFull) {
				t.Fatalf("record %d: %v", i, err)
			}
			if _, err := sess.Ingest([][]byte{logFullPayload(i)}); err != nil {
				t.Fatalf("record %d failed twice: %v", i, err)
			}
		}
	}
	// A background flush of the last sealed page can hit the cap after the
	// final batch landed; settle it, reclaiming once more if it did.
	if err := s.Flush(); errors.Is(err, ErrLogFull) {
		if err := s.RecoverLogSpace(); err != nil {
			t.Fatalf("reclaim after the final flush: %v", err)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("flush after reclaim: %v", err)
		}
	} else if err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Degraded {
		t.Fatalf("store sticky-degraded by ENOSPC: %s (must be the managed log-full state)", st.DegradedCause)
	}
	if st.LogFullRecoveries == 0 {
		t.Fatalf("no recovery ever ran: stats %+v (capacity cap never tripped?)", st)
	}
	if st.LogFull {
		t.Fatalf("store still log-full after drill: %s", st.LogFullCause)
	}
	if s.logBegin() == hlog.BeginAddress {
		t.Fatal("retention never truncated despite MaxLiveBytes")
	}

	// fsck: the surviving log is structurally clean.
	vrep, err := s.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !vrep.OK() {
		t.Fatalf("verify after drill: %s", vrep.Corruption)
	}

	// Index-vs-scan agreement over the live range.
	idx, full := 0, 0
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceIndex},
		func(Record) bool { idx++; return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceFull},
		func(Record) bool { full++; return true }); err != nil {
		t.Fatal(err)
	}
	if idx != full || idx == 0 {
		t.Fatalf("index scan found %d, full scan %d (want equal, non-zero)", idx, full)
	}
	t.Logf("drill: %d recoveries, floor %d, %d live records", st.LogFullRecoveries, s.logBegin(), idx)
}

// TestDiskFullManualRecovery covers the no-AutoRecover path: ENOSPC turns
// into ErrLogFull backpressure, Health folds it as degraded-but-recoverable,
// and an explicit RecoverLogSpace (after the operator frees space) resumes
// ingestion.
func TestDiskFullManualRecovery(t *testing.T) {
	fd := storage.NewFaultDevice(nil, storage.FaultConfig{CapacityBytes: 12 << 10})
	s, err := Open(Options{
		Device: fd, PageBits: 12, MemPages: 2, TableBuckets: 1 << 8,
		Retention: &Retention{MaxLiveBytes: 4 << 10}, // AutoRecover off
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}

	sess := s.NewSession()
	defer sess.Close()
	var sawFull bool
	for i := 0; i < 300; i++ {
		_, err := sess.Ingest([][]byte{logFullPayload(i)})
		if errors.Is(err, ErrLogFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if !sawFull {
		t.Fatal("capacity cap never produced ErrLogFull")
	}
	if !s.Stats().LogFull {
		t.Fatal("Stats().LogFull false after ErrLogFull")
	}
	h := s.health()
	if !h.LogFull || h.Status != "degraded" {
		t.Fatalf("health = %+v, want log_full folded as degraded", h)
	}
	// Without recovery the state is sticky backpressure, not corruption.
	if _, err := sess.Ingest([][]byte{logFullPayload(9999)}); !errors.Is(err, ErrLogFull) {
		t.Fatalf("ingest while full = %v, want ErrLogFull", err)
	}

	if err := s.RecoverLogSpace(); err != nil {
		t.Fatalf("RecoverLogSpace: %v", err)
	}
	if st := s.Stats(); st.LogFull {
		t.Fatalf("still log-full after recovery: %s", st.LogFullCause)
	}
	if _, err := sess.Ingest([][]byte{logFullPayload(10000)}); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	vrep, err := s.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !vrep.OK() {
		t.Fatalf("verify after manual recovery: %s", vrep.Corruption)
	}
}

// TestRecoverLogSpaceFootprint: retention truncates to the first page start
// that leaves at most MaxLiveBytes live, even when the tail sits mid-page.
func TestRecoverLogSpaceFootprint(t *testing.T) {
	const maxLive = 8 << 10
	fd := storage.NewFaultDevice(nil, storage.FaultConfig{})
	s, err := Open(Options{
		Device: fd, PageBits: 12, MemPages: 8, TableBuckets: 1 << 8,
		Retention: &Retention{MaxLiveBytes: maxLive},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	defer sess.Close()
	for i := 0; s.Stats().TailAddress < 5<<12 || s.Stats().TailAddress%(1<<12) == 0; i++ {
		if _, err := sess.Ingest([][]byte{logFullPayload(i)}); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	fd.ArmENOSPC(1)
	if err := s.Flush(); !errors.Is(err, ErrLogFull) {
		t.Fatalf("flush on a full device = %v, want ErrLogFull", err)
	}
	if err := s.RecoverLogSpace(); err != nil {
		t.Fatalf("RecoverLogSpace: %v", err)
	}
	tail, floor := s.Stats().TailAddress, s.logBegin()
	if live := tail - floor; live > maxLive || live+1<<12 <= maxLive {
		t.Fatalf("live footprint after recovery = %d (tail %d, floor %d), want in (%d, %d]",
			live, tail, floor, maxLive-1<<12, maxLive)
	}
}
