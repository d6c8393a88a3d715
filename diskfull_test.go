package fishstore

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// TestDiskFullIsFailStop: a full device is a permanent write failure like
// any other. On a device capped below the corpus, with a checkpoint taken
// partway through, ingest stops with ErrDegraded before the log runs more
// than the in-memory pages past the cap; Flush and Checkpoint then refuse
// with ErrDegraded; and Recover over the surviving image restores a
// consistent prefix that verifies clean, scans the same by index and in
// full, and holds every record acknowledged before the checkpoint. The
// recovered store is wired alike: a full device degrades it too.
func TestDiskFullIsFailStop(t *testing.T) {
	const pageBits, memPages, capBytes = 12, 4, 20 << 10
	const corpus, ckptAt = 400, 40
	inner := storage.NewMem()
	fd := storage.NewFaultDevice(inner, storage.FaultConfig{CapacityBytes: capBytes})
	s, err := Open(Options{Device: fd, PageBits: pageBits, MemPages: memPages, TableBuckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	sess := s.NewSession()
	acked := 0
	var ingestErr error
	for ; acked < corpus; acked++ {
		if acked == ckptAt {
			if err := s.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
		}
		if _, ingestErr = sess.Ingest([][]byte{genEvent(acked, "PushEvent", "spark")}); ingestErr != nil {
			break
		}
	}
	sess.Close()
	if !errors.Is(ingestErr, ErrDegraded) {
		t.Fatalf("ingest over a %d-byte device stopped after %d of %d records with %v, want ErrDegraded",
			capBytes, acked, corpus, ingestErr)
	}
	// The first page over the cap fails its flush; ingest can fill the
	// other in-memory frames, but no frame past them.
	if tail, bound := s.TailAddress(), uint64(capBytes+(memPages+1)<<pageBits); tail > bound {
		t.Fatalf("ingest ran the tail to %d before stopping, want at most %d", tail, bound)
	}
	if st := s.Stats(); !strings.Contains(st.DegradedCause, storage.ErrNoSpace.Error()) {
		t.Fatalf("degraded cause %q, want the device's out-of-space error", st.DegradedCause)
	}
	if err := s.Flush(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Flush after the device filled returned %v, want ErrDegraded", err)
	}
	if err := s.Checkpoint(dir); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Checkpoint after the device filled returned %v, want ErrDegraded", err)
	}
	_ = s.Close() // the final tail flush meets the full device by design

	fd2 := storage.NewFaultDevice(inner, storage.FaultConfig{})
	r, _, err := Recover(dir, RecoverOptions{Options: Options{Device: fd2, TableBuckets: 1 << 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	vrep, err := r.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !vrep.OK() {
		t.Fatalf("verify after recovery: %s", vrep.Corruption)
	}
	ids := func(mode ScanMode) []int {
		var got []int
		if _, err := r.Scan(PropertyString(id, "spark"), ScanOptions{Mode: mode}, func(rec Record) bool {
			var ev struct{ ID int }
			if err := json.Unmarshal(rec.Payload, &ev); err != nil {
				t.Fatalf("unparsable record at %d: %v", rec.Address, err)
			}
			got = append(got, ev.ID)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Ints(got)
		return got
	}
	full, idx := ids(ScanForceFull), ids(ScanForceIndex)
	if !slices.Equal(full, idx) {
		t.Fatalf("index scan found %d records, full scan %d: they must agree", len(idx), len(full))
	}
	// One session ingested in id order, so the survivors are the ids
	// [0, n) for some n between the checkpoint and the acknowledged count.
	for i, got := range full {
		if got != i {
			t.Fatalf("recovered records are not a prefix: position %d holds id %d", i, got)
		}
	}
	if n := len(full); n < ckptAt || n > acked {
		t.Fatalf("recovered %d records, want between the %d acknowledged before the checkpoint and the %d acknowledged",
			n, ckptAt, acked)
	}
	t.Logf("ingest degraded after %d of %d records; recovery kept %d", acked, corpus, len(full))

	rsess := r.NewSession()
	defer rsess.Close()
	if _, err := rsess.Ingest([][]byte{genEvent(corpus, "PushEvent", "spark")}); err != nil {
		t.Fatalf("ingest into the recovered store: %v", err)
	}
	fd2.ArmENOSPC(1)
	if err := r.Flush(); !errors.Is(err, ErrDegraded) || !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("Flush of the recovered store onto a full device returned %v, want ErrDegraded wrapping ErrNoSpace", err)
	}
	if _, err := rsess.Ingest([][]byte{genEvent(corpus+1, "PushEvent", "spark")}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ingest into the degraded recovered store returned %v, want ErrDegraded", err)
	}
}
