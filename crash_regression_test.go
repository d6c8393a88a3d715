package fishstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fishstore/internal/hashtable"
	"fishstore/internal/hlog"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// TestCheckpointFsyncsEveryArtifact pins the durability protocol: the table
// tmp file, the manifest tmp file, and the checkpoint directory itself must
// all be fsynced before Checkpoint returns. Before the fix none of them were,
// so a machine crash after Checkpoint could lose or tear the artifacts the
// manifest claims are durable.
func TestCheckpointFsyncsEveryArtifact(t *testing.T) {
	var mu sync.Mutex
	var synced []string
	orig := fsyncFile
	fsyncFile = func(f *os.File) error {
		mu.Lock()
		synced = append(synced, f.Name())
		mu.Unlock()
		return orig(f)
	}
	defer func() { fsyncFile = orig }()

	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 12, MemPages: 4})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 20; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(ckptDir); err != nil {
		t.Fatal(err)
	}

	want := []string{
		filepath.Join(ckptDir, tableFile) + ".tmp",
		filepath.Join(ckptDir, manifestFile) + ".tmp",
		ckptDir,
	}
	mu.Lock()
	defer mu.Unlock()
	for _, w := range want {
		found := false
		for _, got := range synced {
			if got == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("checkpoint did not fsync %s (synced: %v)", w, synced)
		}
	}
}

// TestCheckpointSurfacesSyncFailure: the manifest claims the log is durable
// below its tail, so a failed device sync must fail the checkpoint rather
// than publish that claim.
func TestCheckpointSurfacesSyncFailure(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NewMem(), storage.FaultConfig{Seed: 7, FailSyncProb: 1})
	s := openTestStore(t, Options{Device: fd, PageBits: 12, MemPages: 4})
	sess := s.NewSession()
	if _, err := sess.Ingest([][]byte{genEvent(1, "PushEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	err := s.Checkpoint(filepath.Join(t.TempDir(), "ckpt"))
	if err == nil {
		t.Fatal("checkpoint succeeded despite the device refusing to sync")
	}
	if !errors.Is(err, storage.ErrSyncFailed) {
		t.Fatalf("checkpoint error = %v, want wrapped ErrSyncFailed", err)
	}
	if !strings.Contains(err.Error(), "checkpoint log sync") {
		t.Fatalf("checkpoint error %q does not name the log sync step", err)
	}
}

// TestReplayIntoOneBucketRestoresAllChains: replay relinks the suffix into
// whatever table recovery holds. One main bucket and one overflow bucket
// held at most 14 properties when overflow buckets were a fixed pool; the
// table now grows, so replaying 32 distinct properties into it restores
// every chain.
func TestReplayIntoOneBucketRestoresAllChains(t *testing.T) {
	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 12, MemPages: 4})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 32; i++ { // 32 distinct properties
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", fmt.Sprintf("repo-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if err := s.Flush(); err != nil { // replay reads the suffix from the device
		t.Fatal(err)
	}

	s.table = hashtable.New(1, 1)
	if _, _, _, err := s.replay(uint64(hlog.BeginAddress)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		n := 0
		if _, err := s.Lookup(PropertyString(id, fmt.Sprintf("repo-%d", i)), func(Record) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("repo-%d: Lookup found %d records after replay, want 1", i, n)
		}
	}
}

// TestRecoverRestoresIngestedBytes: the replayed suffix's bytes must be added
// back to the ingested-bytes counter, exactly as replayed records already
// were. Before the fix a recovered store under-reported IngestedBytes by the
// whole suffix.
func TestRecoverRestoresIngestedBytes(t *testing.T) {
	mem := storage.NewMem()
	opts := Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 100; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(ckptDir); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 150; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	before := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info, err := Recover(ckptDir, RecoverOptions{Options: Options{Device: mem, TableBuckets: 1 << 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.ReplayedRecords != 50 {
		t.Fatalf("replayed %d, want 50", info.ReplayedRecords)
	}
	after := s2.Stats()
	if after.IngestedRecords != before.IngestedRecords {
		t.Fatalf("IngestedRecords after recovery = %d, want %d", after.IngestedRecords, before.IngestedRecords)
	}
	if after.IngestedBytes != before.IngestedBytes {
		t.Fatalf("IngestedBytes after recovery = %d, want %d", after.IngestedBytes, before.IngestedBytes)
	}
}

// TestRecoverSurfacesReadErrors: probeDurableEnd used to treat every read
// error as end-of-log, so a flaky device silently truncated the recovered
// store at the checkpoint tail. Real read errors must abort recovery.
func TestRecoverSurfacesReadErrors(t *testing.T) {
	mem := storage.NewMem()
	opts := Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 40; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(ckptDir); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 60; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fd := storage.NewFaultDevice(mem, storage.FaultConfig{Seed: 3})
	fd.FailNextRead(storage.ErrShortRead)
	if _, _, err := Recover(ckptDir, RecoverOptions{Options: Options{Device: fd, TableBuckets: 1 << 8}}); err == nil {
		t.Fatal("recovery silently truncated the log at a device read error")
	} else if !errors.Is(err, storage.ErrShortRead) {
		t.Fatalf("recovery error = %v, want the injected read error", err)
	}

	// Sanity: the same device recovers fine once the fault is gone.
	s2, info, err := Recover(ckptDir, RecoverOptions{Options: Options{Device: fd, TableBuckets: 1 << 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.ReplayedRecords != 20 {
		t.Fatalf("replayed %d, want 20", info.ReplayedRecords)
	}
}

// TestRecoverTornTailPage is the checkpoint -> crash -> recover round trip
// under the fault device: a power cut after the checkpoint loses the
// unflushed tail, and recovery must come back with every checkpointed record,
// a clean fsck, and a live store.
func TestRecoverTornTailPage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash func(fd *storage.FaultDevice, sess *Session)
	}{
		{"cut-before-tail-flush", func(fd *storage.FaultDevice, sess *Session) {
			// Lose the final tail flush cleanly: everything in sealed pages
			// survives, the partial tail page does not.
			for i := 100; i < 150; i++ {
				if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
					break
				}
			}
			fd.CutNow()
		}},
		{"cut-mid-flush", func(fd *storage.FaultDevice, sess *Session) {
			// Tear an actual in-flight page flush.
			fd.ArmPowerCut(1)
			for i := 100; i < 150; i++ {
				if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
					break
				}
			}
			if !fd.IsCut() {
				fd.CutNow()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := storage.NewMem()
			fd := storage.NewFaultDevice(mem, storage.FaultConfig{Seed: 11})
			s, err := Open(Options{Device: fd, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8})
			if err != nil {
				t.Fatal(err)
			}
			id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
			if err != nil {
				t.Fatal(err)
			}
			sess := s.NewSession()
			for i := 0; i < 100; i++ {
				if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
					t.Fatal(err)
				}
			}
			ckptDir := filepath.Join(t.TempDir(), "ckpt")
			if err := s.Checkpoint(ckptDir); err != nil {
				t.Fatal(err)
			}

			tc.crash(fd, sess)
			sess.Close()
			_ = s.Close() // the tail flush fails: the power is out

			// Recover against the surviving image.
			s2, info, err := Recover(ckptDir, RecoverOptions{Options: Options{Device: mem, TableBuckets: 1 << 8}})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if info.CheckpointTail == 0 || info.RecoveredTail < info.CheckpointTail {
				t.Fatalf("bad recovery window: %+v", info)
			}

			rep, err := s2.VerifyLog(VerifyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("fsck after crash: %s", rep.Corruption)
			}

			var got int
			if _, err := s2.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
				got++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			// All 100 checkpointed records must survive; the suffix may be
			// partially lost but never partially indexed beyond what was
			// replayed (the one torn-tail record may fail the value match).
			if got < 100 {
				t.Fatalf("only %d checkpointed records survived the crash, want >= 100", got)
			}
			if max := 100 + int(info.ReplayedRecords); got > max {
				t.Fatalf("scan found %d records, more than checkpoint+replay can explain (%d)", got, max)
			}

			// The recovered store is live.
			sess2 := s2.NewSession()
			if _, err := sess2.Ingest([][]byte{genEvent(999, "PushEvent", "spark")}); err != nil {
				t.Fatal(err)
			}
			sess2.Close()
		})
	}
}

// TestVerifyDeviceDetectsCorruption: the fsck walker must flag a deliberately
// smashed key-pointer word and report the damaged record's address.
func TestVerifyDeviceDetectsCorruption(t *testing.T) {
	mem := storage.NewMem()
	s, err := Open(Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 50; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	clean, err := VerifyDevice(mem, 12, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.OK() {
		t.Fatalf("clean log reported corrupt: %s", clean.Corruption)
	}
	if clean.Records != 50 {
		t.Fatalf("verifier walked %d records, want 50", clean.Records)
	}

	// Smash the first record's first key-pointer word.
	junk := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := mem.WriteAt(junk, int64(hlog.BeginAddress)+8); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDevice(mem, 12, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("verifier accepted a log with a smashed key pointer")
	}
	if rep.Corruption.Address != uint64(hlog.BeginAddress) {
		t.Fatalf("corruption reported at %d, want %d", rep.Corruption.Address, uint64(hlog.BeginAddress))
	}
}
