package fishstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"testing"

	"fishstore/internal/hlog"
	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/storage"
)

// fillToDevice ingests events until several pages have been evicted below
// HeadAddress, then flushes so the on-device image is complete. Every event's
// repo is "spark". Returns the number of records ingested.
func fillToDevice(t *testing.T, s *Store) int {
	t.Helper()
	sess := s.NewSession()
	defer sess.Close()
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.log.HeadAddress() <= uint64(hlog.BeginAddress) {
		t.Fatalf("head did not advance past the first page (head=%d); records never reached the device",
			s.log.HeadAddress())
	}
	return n
}

// deviceRecordAddrs walks record headers on the raw device from BeginAddress
// up to limit, returning each record's address and size in words.
func deviceRecordAddrs(t *testing.T, dev storage.Device, limit uint64) (addrs []uint64, sizes []int) {
	t.Helper()
	var buf [8]byte
	for addr := uint64(hlog.BeginAddress); addr < limit; {
		if _, err := dev.ReadAt(buf[:], int64(addr)); err != nil {
			t.Fatal(err)
		}
		h := record.Header(uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 |
			uint64(buf[3])<<24 | uint64(buf[4])<<32 | uint64(buf[5])<<40 |
			uint64(buf[6])<<48 | uint64(buf[7])<<56)
		if h.SizeWords() <= 0 {
			break
		}
		if !h.Filler() {
			addrs = append(addrs, addr)
			sizes = append(sizes, h.SizeWords())
		}
		addr += uint64(h.SizeWords()) * 8
	}
	return addrs, sizes
}

// flipPayloadByte flips one bit in the last payload word of the record at
// addr (the word just before the checksum trailer), leaving the header and
// key pointers untouched so only the checksum can catch the damage.
func flipPayloadByte(t *testing.T, dev storage.Device, addr uint64, sizeWords int) {
	t.Helper()
	off := int64(addr) + int64(sizeWords-2)*8
	var b [1]byte
	if _, err := dev.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := dev.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumSealedOnFlush: after a flush, every on-device record must carry
// a valid seal, and the verifier must count them all as sealed.
func TestChecksumSealedOnFlush(t *testing.T) {
	mem := storage.NewMem()
	s := openTestStore(t, Options{Device: mem, PageBits: 12, MemPages: 4})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	n := fillToDevice(t, s)

	rep, err := s.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck failed on a healthy checksummed log: %s", rep.Corruption)
	}
	if rep.SealedRecords != int64(n) {
		t.Fatalf("SealedRecords = %d, want %d", rep.SealedRecords, n)
	}
	if rep.UncheckedRecords != 0 {
		t.Fatalf("UncheckedRecords = %d, want 0", rep.UncheckedRecords)
	}
}

// TestVerifyDetectsFlippedPayloadBit: a single flipped payload bit on the
// device must fail verification with the checksum-mismatch reason, at the
// damaged record's address.
func TestVerifyDetectsFlippedPayloadBit(t *testing.T) {
	mem := storage.NewMem()
	s := openTestStore(t, Options{Device: mem, PageBits: 12, MemPages: 4})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	fillToDevice(t, s)

	addrs, sizes := deviceRecordAddrs(t, mem, s.log.HeadAddress())
	if len(addrs) < 3 {
		t.Fatalf("only %d records below head", len(addrs))
	}
	victim := len(addrs) / 2
	flipPayloadByte(t, mem, addrs[victim], sizes[victim])

	rep, err := s.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("verifier accepted a log with a flipped payload bit")
	}
	if rep.Corruption.Address != addrs[victim] {
		t.Fatalf("corruption at %d, want %d", rep.Corruption.Address, addrs[victim])
	}
}

// TestVerifyOnReadQuarantine: with VerifyOnRead, both scan paths must skip a
// corrupt device record — never surfacing its payload — and count it.
func TestVerifyOnReadQuarantine(t *testing.T) {
	mem := storage.NewMem()
	reg := metrics.NewRegistry()
	s := openTestStore(t, Options{Device: mem, PageBits: 12, MemPages: 4,
		VerifyOnRead: true, Metrics: reg})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	n := fillToDevice(t, s)

	// Corrupt the OLDEST record: it is the terminal link of the hash chain,
	// so the chain walk visits every healthy record before hitting it.
	addrs, sizes := deviceRecordAddrs(t, mem, s.log.HeadAddress())
	flipPayloadByte(t, mem, addrs[0], sizes[0])

	// Full scan: the corrupt record is skipped, everything else surfaces.
	var got int
	st, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceFull}, func(r Record) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n-1 {
		t.Fatalf("full scan surfaced %d records, want %d (corrupt one quarantined)", got, n-1)
	}
	if st.Quarantined != 1 {
		t.Fatalf("full scan Quarantined = %d, want 1", st.Quarantined)
	}

	// Index scan: the walk terminates at the corrupt link (its prev pointer
	// is untrustworthy), having already delivered all newer records.
	got = 0
	st, err = s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceIndex}, func(r Record) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n-1 {
		t.Fatalf("index scan surfaced %d records, want %d", got, n-1)
	}
	if st.Quarantined != 1 {
		t.Fatalf("index scan Quarantined = %d, want 1", st.Quarantined)
	}

	if v := reg.Snapshot().Value("fishstore_corrupt_records_total"); v < 2 {
		t.Fatalf("fishstore_corrupt_records_total = %v, want >= 2", v)
	}
}

// TestRecoverTruncatesCorruptSuffixRecord: recovery must never admit a
// record whose payload fails its checksum — the durable end is truncated
// just before it, dropping the rest of the suffix.
func TestRecoverTruncatesCorruptSuffixRecord(t *testing.T) {
	mem := storage.NewMem()
	opts := Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
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
	ckptTail := s.log.TailAddress()
	for i := 40; i < 60; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the first record of the post-checkpoint suffix on the device.
	addrs, sizes := deviceRecordAddrs(t, mem, ^uint64(0))
	victim := -1
	for i, a := range addrs {
		if a >= ckptTail {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no suffix record found past the checkpoint tail")
	}
	flipPayloadByte(t, mem, addrs[victim], sizes[victim])

	s2, info, err := Recover(ckptDir, RecoverOptions{Options: Options{Device: mem, TableBuckets: 1 << 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.RecoveredTail > addrs[victim] {
		t.Fatalf("recovered tail %d admits the corrupt record at %d", info.RecoveredTail, addrs[victim])
	}
	if info.ReplayedRecords != 0 {
		t.Fatalf("replayed %d suffix records past a corrupt head-of-suffix, want 0", info.ReplayedRecords)
	}

	rep, err := s2.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after truncating recovery: %s", rep.Corruption)
	}

	var got int
	if _, err := s2.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 40 {
		t.Fatalf("recovered store surfaced %d records, want the 40 checkpointed ones", got)
	}

	// The recovered store is live again.
	sess2 := s2.NewSession()
	if _, err := sess2.Ingest([][]byte{genEvent(999, "PushEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	sess2.Close()
}

// TestVerifyDeviceReportsLostVisibleBit: the sealer seals only visible
// records, so a durable record whose visible bit flipped after sealing is rot,
// not the log's frontier. VerifyDevice must report it at its address instead
// of ending the log there, and recovery stops there as it does for any seal
// that fails.
func TestVerifyDeviceReportsLostVisibleBit(t *testing.T) {
	mem := storage.NewMem()
	s, err := Open(Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	for i := 0; i < 60; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
		if i == 9 {
			if err := s.Checkpoint(ckptDir); err != nil {
				t.Fatal(err)
			}
		}
	}
	sess.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	addrs, _ := deviceRecordAddrs(t, mem, ^uint64(0))
	if len(addrs) != 60 {
		t.Fatalf("device holds %d records, want 60", len(addrs))
	}
	victim := addrs[30]
	var b [1]byte
	if _, err := mem.ReadAt(b[:], int64(victim)+7); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x80 // bit 63 of the header word: visible
	if _, err := mem.WriteAt(b[:], int64(victim)+7); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifyDevice(mem, 12, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("verifier accepted a sealed record that lost its visible bit (walked %d records)", rep.Records)
	}
	if rep.Corruption.Address != victim {
		t.Fatalf("corruption reported at %d (%s), want %d", rep.Corruption.Address, rep.Corruption, victim)
	}

	s2, info, err := Recover(ckptDir, RecoverOptions{Options: Options{Device: mem, TableBuckets: 1 << 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.RecoveredTail != victim || info.ReplayedRecords != 20 {
		t.Fatalf("recovery ended at %d after replaying %d records, want %d after 20",
			info.RecoveredTail, info.ReplayedRecords, victim)
	}
}

// TestV0LogRecoversUnderChecksumBinary: a log written without checksums
// (format v0) must recover cleanly under a binary that seals by default, and
// new ingestion into the recovered store must produce sealed records.
func TestV0LogRecoversUnderChecksumBinary(t *testing.T) {
	mem := storage.NewMem()
	s, err := Open(Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8,
		disableRecordChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 50; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(ckptDir); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover with checksums enabled (the default).
	s2, _, err := Recover(ckptDir, RecoverOptions{Options: Options{Device: mem, TableBuckets: 1 << 8,
		VerifyOnRead: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	rep, err := s2.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck rejected a healthy v0 log: %s", rep.Corruption)
	}
	if rep.UncheckedRecords != 50 {
		t.Fatalf("UncheckedRecords = %d, want 50 v0 records", rep.UncheckedRecords)
	}

	// v0 records scan cleanly even under VerifyOnRead (nothing to check).
	var got int
	if _, err := s2.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("scan over recovered v0 log surfaced %d records, want 50", got)
	}

	// New ingestion seals: flush and re-verify — sealed count now non-zero.
	sess2 := s2.NewSession()
	for i := 0; i < 20; i++ {
		if _, err := sess2.Ingest([][]byte{genEvent(1000+i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess2.Close()
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err = s2.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after mixed v0/v1 ingest: %s", rep.Corruption)
	}
	if rep.SealedRecords != 20 {
		t.Fatalf("SealedRecords = %d, want the 20 new v1 records", rep.SealedRecords)
	}
}

// TestDegradedModeAfterPermanentWriteFailure: a permanent flush failure must
// flip the store into read-only degradation — the failing Flush itself
// reports ErrDegraded wrapping the device's error, later ingest, checkpoint
// and flush refuse with ErrDegraded, reads keep working, and the state is
// observable.
func TestDegradedModeAfterPermanentWriteFailure(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NewMem(), storage.FaultConfig{Seed: 5})
	reg := metrics.NewRegistry()
	s := openTestStore(t, Options{Device: fd, PageBits: 12, MemPages: 4, Metrics: reg})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	defer sess.Close()
	for i := 0; i < 10; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}

	fd.CutNow() // every write from here on fails permanently
	if err := s.Flush(); !errors.Is(err, ErrDegraded) || !errors.Is(err, storage.ErrPowerCut) {
		t.Fatalf("first Flush against a dead device returned %v, want ErrDegraded wrapping ErrPowerCut", err)
	}

	if st := s.Stats(); !st.Degraded || st.DegradedCause == "" {
		t.Fatalf("Stats().Degraded = %v, %q after a permanent flush failure", st.Degraded, st.DegradedCause)
	}
	if _, err := sess.Ingest([][]byte{genEvent(99, "PushEvent", "spark")}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Ingest on a degraded store returned %v, want ErrDegraded", err)
	}
	if err := s.Checkpoint(filepath.Join(t.TempDir(), "ckpt")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Checkpoint on a degraded store returned %v, want ErrDegraded", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second Flush returned %v, want ErrDegraded", err)
	}

	// Reads still work: the 10 in-memory records remain scannable.
	var got int
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("degraded store surfaced %d records, want 10", got)
	}

	stats := s.Stats()
	if !stats.Degraded || stats.DegradedCause == "" {
		t.Fatalf("Stats() = degraded=%v cause=%q, want the degradation visible", stats.Degraded, stats.DegradedCause)
	}
	if v := reg.Snapshot().Value("fishstore_degraded"); v != 1 {
		t.Fatalf("fishstore_degraded gauge = %v, want 1", v)
	}
	ls, err := s.logComposition(logSampleOptions{To: 1}) // header-only sample
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Degraded || ls.DegradedCause == "" {
		t.Fatalf("LogSnapshot degraded=%v cause=%q, want flagged", ls.Degraded, ls.DegradedCause)
	}
}

// TestBodySealedLogRecovers: a log sealed before seals covered the header
// (CRC32-C over the body alone, under the old trailer magic) recovers with
// its whole post-checkpoint suffix replayed, verifies clean and scans
// without quarantine.
func TestBodySealedLogRecovers(t *testing.T) {
	mem := storage.NewMem()
	s, err := Open(Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0, 40)
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(ckptDir); err != nil {
		t.Fatal(err)
	}
	ingest(40, 60)
	sess.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	addrs, sizes := deviceRecordAddrs(t, mem, ^uint64(0))
	if len(addrs) != 60 {
		t.Fatalf("found %d records on the device, want 60", len(addrs))
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for i, addr := range addrs {
		rec := make([]byte, sizes[i]*8)
		if _, err := mem.ReadAt(rec, int64(addr)); err != nil {
			t.Fatal(err)
		}
		h := record.Header(binary.LittleEndian.Uint64(rec))
		start := (record.HeaderWords + h.NumPtrs()*record.WordsPerPointer) * 8
		end := (h.SizeWords() - h.TrailerWords()) * 8
		trailer := rec[len(rec)-8:]
		old := uint64(0xF15C5EA1)<<32 | uint64(crc32.Checksum(rec[start:end], castagnoli))
		if binary.LittleEndian.Uint64(trailer) == old {
			t.Fatalf("record at %d already carries a body-only seal", addr)
		}
		binary.LittleEndian.PutUint64(trailer, old)
		if _, err := mem.WriteAt(trailer, int64(addr)+int64(len(rec)-8)); err != nil {
			t.Fatal(err)
		}
	}

	s2, info, err := Recover(ckptDir, RecoverOptions{Options: Options{Device: mem, TableBuckets: 1 << 8,
		VerifyOnRead: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.ReplayedRecords != 20 {
		t.Fatalf("replayed %d suffix records, want the 20 past the checkpoint", info.ReplayedRecords)
	}
	rep, err := s2.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.SealedRecords != 60 {
		t.Fatalf("fsck of a body-sealed log: corruption %v, %d sealed records, want none and 60",
			rep.Corruption, rep.SealedRecords)
	}
	var got int
	st, err := s2.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceFull}, func(Record) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 60 || st.Quarantined != 0 {
		t.Fatalf("scan surfaced %d records and quarantined %d, want 60 and 0", got, st.Quarantined)
	}
}

// TestMaskedSealedLogRecovers: a log sealed while seals skipped the header's
// visibility and invalid bits (CRC32-C over the rest of the header and the
// body, under that generation's trailer magic), holding one abandoned copy,
// recovers with its whole post-checkpoint suffix replayed, verifies clean
// and scans without quarantine.
func TestMaskedSealedLogRecovers(t *testing.T) {
	mem := storage.NewMem()
	s, err := Open(Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0, 40)
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(ckptDir); err != nil {
		t.Fatal(err)
	}
	abandoned := ingestAbandoned(t, sess, genEvent(40, "PushEvent", "spark"))
	ingest(40, 60)
	sess.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	addrs, sizes := deviceRecordAddrs(t, mem, ^uint64(0))
	if len(addrs) != 61 {
		t.Fatalf("found %d records on the device, want 60 and the abandoned copy", len(addrs))
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	const visibleInvalid = uint64(3) << 62
	for i, addr := range addrs {
		rec := make([]byte, sizes[i]*8)
		if _, err := mem.ReadAt(rec, int64(addr)); err != nil {
			t.Fatal(err)
		}
		hw := binary.LittleEndian.Uint64(rec)
		want := uint64(1) << 63 // published: visible, not invalid
		if addr == abandoned {
			want = visibleInvalid
		}
		if hw&visibleInvalid != want {
			t.Fatalf("record at %d has header %#x", addr, hw)
		}
		h := record.Header(hw)
		start := (record.HeaderWords + h.NumPtrs()*record.WordsPerPointer) * 8
		end := (h.SizeWords() - h.TrailerWords()) * 8
		crc := crc32.Checksum(binary.LittleEndian.AppendUint64(nil, hw&^visibleInvalid), castagnoli)
		old := uint64(0x0EA3A15E)<<32 | uint64(crc32.Update(crc, castagnoli, rec[start:end]))
		trailer := rec[len(rec)-8:]
		if binary.LittleEndian.Uint64(trailer) == old {
			t.Fatalf("record at %d already carries a masked seal", addr)
		}
		binary.LittleEndian.PutUint64(trailer, old)
		if _, err := mem.WriteAt(trailer, int64(addr)+int64(len(rec)-8)); err != nil {
			t.Fatal(err)
		}
	}

	s2, info, err := Recover(ckptDir, RecoverOptions{Options: Options{Device: mem, TableBuckets: 1 << 8,
		VerifyOnRead: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if end := addrs[60] + uint64(sizes[60])*8; info.ReplayedRecords != 20 || info.RecoveredTail != end {
		t.Fatalf("replayed %d suffix records up to %d, want the 20 live ones past the checkpoint up to %d",
			info.ReplayedRecords, info.RecoveredTail, end)
	}
	rep, err := s2.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.SealedRecords != 61 {
		t.Fatalf("fsck of a masked-sealed log: corruption %v, %d sealed records, want none and 61",
			rep.Corruption, rep.SealedRecords)
	}
	for _, mode := range []ScanMode{ScanForceFull, ScanForceIndex} {
		var got int
		st, err := s2.Scan(PropertyString(id, "spark"), ScanOptions{Mode: mode}, func(r Record) bool {
			if r.Address == abandoned {
				t.Fatalf("%s scan surfaced the abandoned copy", mode)
			}
			got++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != 60 || st.Quarantined != 0 {
			t.Fatalf("%s scan surfaced %d records and quarantined %d, want 60 and 0", mode, got, st.Quarantined)
		}
	}
}
