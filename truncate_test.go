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

func TestInvalidateHidesRecordEverywhere(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	var addrs []uint64
	for i := 0; i < 10; i++ {
		addrs = append(addrs, s.TailAddress())
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	if err := s.Invalidate(addrs[3]); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []ScanMode{ScanForceIndex, ScanForceFull} {
		var got int
		if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: mode},
			func(r Record) bool {
				if r.Address == addrs[3] {
					t.Fatal("invalidated record surfaced")
				}
				got++
				return true
			}); err != nil {
			t.Fatal(err)
		}
		if got != 9 {
			t.Fatalf("mode %d: matched %d, want 9", mode, got)
		}
	}
	// Iterate skips it too.
	var got int
	s.Iterate(0, 0, func(r Record) bool { got++; return true })
	if got != 9 {
		t.Fatalf("Iterate saw %d, want 9", got)
	}
}

func TestInvalidateUpdatePattern(t *testing.T) {
	// Append-and-invalidate: replace record i=5's version.
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("actor.name"))
	sess := s.NewSession()
	old := s.TailAddress()
	if _, err := sess.Ingest([][]byte{genEvent(5, "PushEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	// New version for the same actor (user5).
	if _, err := sess.Ingest([][]byte{genEvent(15, "IssuesEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if err := s.Invalidate(old); err != nil {
		t.Fatal(err)
	}
	var payloads []string
	if _, err := s.Scan(PropertyString(id, "user5"), ScanOptions{}, func(r Record) bool {
		payloads = append(payloads, string(r.Payload))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 {
		t.Fatalf("got %d versions, want 1 (the new one)", len(payloads))
	}
}

func TestInvalidateErrors(t *testing.T) {
	s := openTestStore(t, Options{PageBits: 12, MemPages: 2, Device: storage.NewMem()})
	sess := s.NewSession()
	first := s.TailAddress()
	for i := 0; i < 300; i++ { // push `first` off the in-memory buffer
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if err := s.Invalidate(first); err != ErrNotResident {
		t.Fatalf("err = %v, want ErrNotResident", err)
	}
	if err := s.Invalidate(s.TailAddress() + 100); err == nil {
		t.Fatal("invalidated beyond tail")
	}
}

func TestSessionUpdate(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	sess := s.NewSession()
	defer sess.Close()
	oldAddr := s.TailAddress()
	if _, err := sess.Ingest([][]byte{genEvent(1, "PushEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update(oldAddr, genEvent(1, "IssuesEvent", "spark")); err != nil {
		t.Fatal(err)
	}
	var payloads []string
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(r Record) bool {
		payloads = append(payloads, string(r.Payload))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 {
		t.Fatalf("got %d versions, want 1", len(payloads))
	}
	if !contains(payloads[0], "IssuesEvent") {
		t.Fatalf("surviving version = %q", payloads[0])
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
