package fishstore

import (
	"testing"

	"fishstore/internal/hlog"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

func TestTruncateUntilClampsScans(t *testing.T) {
	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 12, MemPages: 2})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	var mid uint64
	for i := 0; i < 200; i++ {
		if i == 100 {
			mid = s.TailAddress()
		}
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	if err := s.TruncateUntil(mid); err != nil {
		t.Fatal(err)
	}
	if s.logBegin() != mid {
		t.Fatalf("logBegin = %d, want %d", s.logBegin(), mid)
	}
	for _, mode := range []ScanMode{ScanAuto, ScanForceIndex, ScanForceFull} {
		var got int
		if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: mode},
			func(Record) bool { got++; return true }); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if got != 100 {
			t.Fatalf("mode %d: matched %d after truncation, want 100", mode, got)
		}
	}
	// Truncation is monotonic: shrinking is a no-op.
	if err := s.TruncateUntil(mid - 64); err != nil {
		t.Fatal(err)
	}
	if s.logBegin() != mid {
		t.Fatal("truncation went backwards")
	}
	// Beyond the tail is rejected.
	if err := s.TruncateUntil(s.TailAddress() + 4096); err == nil {
		t.Fatal("accepted truncation beyond tail")
	}
}

func TestStatsLogSizeReflectsTruncation(t *testing.T) {
	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 12, MemPages: 2})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	var mid uint64
	for i := 0; i < 200; i++ {
		if i == 100 {
			mid = s.TailAddress()
		}
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	before := s.Stats()
	if before.LogSizeBytes != before.TailAddress-hlog.BeginAddress {
		t.Fatalf("pre-truncation LogSizeBytes = %d, want %d",
			before.LogSizeBytes, before.TailAddress-hlog.BeginAddress)
	}
	if before.TotalAppendedBytes != before.LogSizeBytes {
		t.Fatalf("pre-truncation TotalAppendedBytes = %d, want %d",
			before.TotalAppendedBytes, before.LogSizeBytes)
	}

	if err := s.TruncateUntil(mid); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	// Live size must shrink to tail - truncation point...
	if want := after.TailAddress - mid; after.LogSizeBytes != want {
		t.Fatalf("post-truncation LogSizeBytes = %d, want %d", after.LogSizeBytes, want)
	}
	// ...while the append total is unchanged by truncation.
	if want := after.TailAddress - hlog.BeginAddress; after.TotalAppendedBytes != want {
		t.Fatalf("post-truncation TotalAppendedBytes = %d, want %d", after.TotalAppendedBytes, want)
	}
	if after.LogSizeBytes >= after.TotalAppendedBytes {
		t.Fatal("truncation did not reduce the live size below the append total")
	}
}
