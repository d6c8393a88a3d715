package fishstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.dat")
	dev, err := storage.OpenFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Device: dev, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	def := psf.MustPredicate("pushes", `type == "PushEvent"`)
	idPred, _, err := s.RegisterPSF(def)
	if err != nil {
		t.Fatal(err)
	}

	sess := s.NewSession()
	for i := 0; i < 100; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}

	ckptDir := filepath.Join(dir, "ckpt")
	if err := s.Checkpoint(ckptDir); err != nil {
		t.Fatal(err)
	}

	// Ingest more after the checkpoint; make it durable via page flushes and
	// a final tail flush (simulating data that survived the crash).
	for i := 100; i < 150; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if err := s.Close(); err != nil { // flushes tail; the "crash" loses nothing here
		t.Fatal(err)
	}

	// Recover from the same file.
	dev2, err := storage.OpenFileExisting(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s2, info, err := Recover(ckptDir, RecoverOptions{Options: Options{Device: dev2, TableBuckets: 1 << 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	if info.ReplayedRecords != 50 {
		t.Fatalf("replayed %d records, want 50 (info %+v)", info.ReplayedRecords, info)
	}
	if info.RecoveredTail <= info.CheckpointTail {
		t.Fatalf("no suffix recovered: %+v", info)
	}

	// All 150 records must be retrievable through the restored + replayed
	// index.
	var got int
	if _, err := s2.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 150 {
		t.Fatalf("recovered scan matched %d, want 150", got)
	}

	// The predicate PSF must have been restored too (by source round trip).
	got = 0
	if _, err := s2.Scan(PropertyBool(idPred, true), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 150 {
		t.Fatalf("predicate PSF after recovery matched %d, want 150", got)
	}

	// Recovered store accepts new ingestion and keeps indexing.
	sess2 := s2.NewSession()
	if _, err := sess2.Ingest([][]byte{genEvent(999, "PushEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	sess2.Close()
	got = 0
	if _, err := s2.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 151 {
		t.Fatalf("post-recovery ingest: matched %d, want 151", got)
	}
}

func TestRecoverWithoutSuffix(t *testing.T) {
	dir := t.TempDir()
	dev, err := storage.OpenFile(filepath.Join(dir, "log.dat"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Device: dev, PageBits: 12, MemPages: 2, TableBuckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	id, _, _ := s.RegisterPSF(psf.Projection("type"))
	sess := s.NewSession()
	for i := 0; i < 40; i++ {
		if _, err := sess.Ingest([][]byte{genEvent(i, "IssuesEvent", "spark")}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	ckpt := filepath.Join(dir, "ckpt")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	s.Close()

	dev2, err := storage.OpenFileExisting(filepath.Join(dir, "log.dat"))
	if err != nil {
		t.Fatal(err)
	}
	s2, info, err := Recover(ckpt, RecoverOptions{Options: Options{Device: dev2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.ReplayedRecords != 0 {
		t.Fatalf("replayed %d, want 0", info.ReplayedRecords)
	}
	var got int
	s2.Scan(PropertyString(id, "IssuesEvent"), ScanOptions{}, func(Record) bool { got++; return true })
	if got != 40 {
		t.Fatalf("matched %d, want 40", got)
	}
}

func TestCheckpointRejectsCustomPSF(t *testing.T) {
	s := openTestStore(t, Options{})
	_, _, err := s.RegisterPSF(psf.Custom("c", []string{"x"}, nil))
	if err == nil {
		t.Fatal("nil custom fn accepted")
	}
}

func TestHistoricalIndexBuild(t *testing.T) {
	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 12, MemPages: 2})
	// Ingest 200 records with NO PSFs: completely unindexed.
	sess := s.NewSession()
	want := 0
	for i := 0; i < 200; i++ {
		repo := "flink"
		if i%5 == 0 {
			repo = "spark"
			want++
		}
		if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", repo)}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	historicalEnd := s.TailAddress()

	// Register the PSF (indexes future data) and then build the historical
	// index over the already-ingested range.
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	built, err := s.BuildHistoricalIndex(id, 0, historicalEnd)
	if err != nil {
		t.Fatal(err)
	}
	if built != 200 { // every record has a repo.name value
		t.Fatalf("built %d index entries, want 200", built)
	}

	// Index-only scan over the historical range must now find the matches.
	var got int
	st, err := s.Scan(PropertyString(id, "spark"),
		ScanOptions{To: historicalEnd, Mode: ScanForceIndex},
		func(r Record) bool { got++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("historical index scan matched %d, want %d (plan %+v)", got, want, st.Plan)
	}

	// Auto scan over everything must not double count.
	got = 0
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("auto scan matched %d, want %d", got, want)
	}
}

func TestHistoricalIndexPayloadResolution(t *testing.T) {
	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 12, MemPages: 2})
	sess := s.NewSession()
	if _, err := sess.Ingest([][]byte{genEvent(42, "PushEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	end := s.TailAddress()
	id, _, _ := s.RegisterPSF(psf.Projection("repo.name"))
	if _, err := s.BuildHistoricalIndex(id, 0, end); err != nil {
		t.Fatal(err)
	}
	var payload []byte
	if _, err := s.Scan(PropertyString(id, "spark"),
		ScanOptions{To: end, Mode: ScanForceIndex},
		func(r Record) bool { payload = bytes.Clone(r.Payload); return true }); err != nil {
		t.Fatal(err)
	}
	if payload == nil {
		t.Fatal("no record resolved")
	}
	// The payload must be the original record, not the 8-byte indirection.
	if len(payload) < 20 || payload[0] != '{' {
		t.Fatalf("resolved payload = %q", payload)
	}
}

var imageRepos = []string{"spark", "flink", "kafka"}

// checkpointedImageStore ingests 60 events over imageRepos, half of them
// pushes, checkpoints after the first 40 and closes the store. The log is
// dir/log.dat and the checkpoint dir/ckpt.
func checkpointedImageStore(t *testing.T) (dir string) {
	t.Helper()
	dir = t.TempDir()
	dev, err := storage.OpenFile(filepath.Join(dir, "log.dat"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Device: dev, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range []psf.Definition{psf.Projection("repo.name"), psf.MustPredicate("pushes", `type == "PushEvent"`)} {
		if _, _, err := s.RegisterPSF(def); err != nil {
			t.Fatal(err)
		}
	}
	sess := s.NewSession()
	for i := 0; i < 60; i++ {
		if i == 40 {
			if err := s.Checkpoint(filepath.Join(dir, "ckpt")); err != nil {
				t.Fatal(err)
			}
		}
		typ := "IssuesEvent"
		if i%2 == 0 {
			typ = "PushEvent"
		}
		if _, err := sess.Ingest([][]byte{genEvent(i, typ, imageRepos[i%3])}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func recoverImageStore(t *testing.T, dir string) (*Store, RecoveryInfo, error) {
	t.Helper()
	dev, err := storage.OpenFileExisting(filepath.Join(dir, "log.dat"))
	if err != nil {
		t.Fatal(err)
	}
	s, info, err := Recover(filepath.Join(dir, "ckpt"), RecoverOptions{Options: Options{Device: dev}})
	if err != nil {
		dev.Close()
	}
	return s, info, err
}

// rewriteTableImage replaces the checkpoint's table image with edit's result.
func rewriteTableImage(t *testing.T, dir string, edit func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, "ckpt", tableFile)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(img), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRejectsFlippedTableImage: one flipped byte anywhere in the
// table image — header, an entry, the seal — fails recovery instead of
// restoring a wrong chain head.
func TestRecoverRejectsFlippedTableImage(t *testing.T) {
	dir := checkpointedImageStore(t)
	img, err := os.ReadFile(filepath.Join(dir, "ckpt", tableFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{8, len(img) / 2, len(img) - 1} {
		rewriteTableImage(t, dir, func(b []byte) []byte {
			b = append(b[:0:0], img...)
			b[pos] ^= 0x10
			return b
		})
		if s, _, err := recoverImageStore(t, dir); err == nil {
			s.Close()
			t.Fatalf("recovered from a table image with byte %d of %d flipped", pos, len(img))
		}
	}
}

// TestRecoverRejectsOversizedTableImage: a header claiming 2^61 bucket
// words fails recovery with an error, whether in the dense layout or sealed.
func TestRecoverRejectsOversizedTableImage(t *testing.T) {
	dir := checkpointedImageStore(t)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	edits := map[string]func([]byte) []byte{
		"dense": func([]byte) []byte {
			b := binary.LittleEndian.AppendUint64(nil, 1<<61)
			b = binary.LittleEndian.AppendUint64(b, 64*8)
			return binary.LittleEndian.AppendUint64(b, 1)
		},
		"sealed": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 1<<61)
			body := b[:len(b)-4]
			binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, castagnoli))
			return b
		},
	}
	for name, edit := range edits {
		rewriteTableImage(t, dir, edit)
		if s, _, err := recoverImageStore(t, dir); err == nil {
			s.Close()
			t.Fatalf("%s: recovered from a table image claiming 2^61 bucket words", name)
		}
	}
}

// denseTableImage re-encodes a table image in the unsealed dense layout
// that preceded it: bucket and overflow lengths, the overflow cursor, then
// every word of both arrays. The image's header is a magic word and those
// three; the bucket array and the overflow buckets the cursor handed out
// follow as runs of 64 words, a mask of the non-zero ones and then those
// words.
func denseTableImage(img []byte) []byte {
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(img[8*i:]) }
	nb, no, next := word(1), word(2), word(3)
	used := min(next, no/8) * 8
	words := make([]uint64, nb+no)
	pos := 4
	for _, arr := range [][]uint64{words[:nb], words[nb : nb+used]} {
		for off := 0; off < len(arr); off += 64 {
			mask := word(pos)
			pos++
			for m := mask; m != 0; m &= m - 1 {
				arr[off+bits.TrailingZeros64(m)] = word(pos)
				pos++
			}
		}
	}
	dense := binary.LittleEndian.AppendUint64(nil, nb)
	dense = binary.LittleEndian.AppendUint64(dense, no)
	dense = binary.LittleEndian.AppendUint64(dense, next)
	for _, w := range words {
		dense = binary.LittleEndian.AppendUint64(dense, w)
	}
	return dense
}

// TestDenseTableImageRecovers: a checkpoint whose table image is in the
// dense layout older stores wrote still recovers, replays its suffix and
// answers every property through the index.
func TestDenseTableImageRecovers(t *testing.T) {
	dir := checkpointedImageStore(t)
	var sparseLen, denseLen int
	rewriteTableImage(t, dir, func(img []byte) []byte {
		dense := denseTableImage(img)
		sparseLen, denseLen = len(img), len(dense)
		return dense
	})
	if denseLen <= sparseLen {
		t.Fatalf("dense image of %d bytes is not larger than the %d-byte sparse one", denseLen, sparseLen)
	}
	s, info, err := recoverImageStore(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if info.ReplayedRecords != 20 {
		t.Fatalf("replayed %d records, want the 20 past the checkpoint", info.ReplayedRecords)
	}
	count := func(p Property) int {
		var n int
		if _, err := s.Scan(p, ScanOptions{Mode: ScanForceIndex}, func(Record) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	repo, ok := s.PSFByName("proj(repo.name)")
	pushes, ok2 := s.PSFByName("pushes")
	if !ok || !ok2 {
		t.Fatal("PSFs not restored")
	}
	for _, r := range imageRepos {
		if got := count(PropertyString(repo, r)); got != 20 {
			t.Fatalf("repo.name=%s matched %d, want 20", r, got)
		}
	}
	if got := count(PropertyBool(pushes, true)); got != 30 {
		t.Fatalf("pushes matched %d, want 30", got)
	}
}

// TestCheckpointDuringHistoricalBuild: checkpoints taken while a historical
// index build links entries and overflow buckets each recover every entry
// the finished build made. The build holds the checkpoint barrier while it
// appends, as ingestion does, so no image catches a link half made.
func TestCheckpointDuringHistoricalBuild(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.dat")
	dev, err := storage.OpenFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Two buckets and a distinct id per record: the build links an overflow
	// bucket every few records and grows the overflow segments.
	s, err := Open(Options{Device: dev, PageBits: 12, MemPages: 4, TableBuckets: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	const n = 4000
	for i := 0; i < n; i += 100 {
		batch := make([][]byte, 100)
		for j := range batch {
			batch[j] = genEvent(i+j, "PushEvent", "spark")
		}
		if _, err := sess.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	end := s.TailAddress()
	id, _, err := s.RegisterPSF(psf.Projection("id"))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := s.BuildHistoricalIndex(id, 0, end)
		done <- err
	}()
	// Checkpoint until the build ends, at most 16 times (recovering each
	// replays the log suffix, which is slow under the race detector), then
	// once after it.
	var ckpts []string
	checkpoint := func() {
		ckpt := filepath.Join(dir, fmt.Sprintf("ckpt%d", len(ckpts)))
		if err := s.Checkpoint(ckpt); err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, ckpt)
	}
	for len(ckpts) < 16 && len(done) == 0 {
		checkpoint()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkpoint()
	want := s.Stats().TableStats.UsedEntries
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, ckpt := range ckpts {
		dev, err := storage.OpenFileExisting(logPath)
		if err != nil {
			t.Fatal(err)
		}
		s2, _, err := Recover(ckpt, RecoverOptions{Options: Options{Device: dev}})
		if err != nil {
			dev.Close()
			t.Fatalf("%s: %v", filepath.Base(ckpt), err)
		}
		got := s2.Stats().TableStats.UsedEntries
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s restored %d entries, want the %d the build made", filepath.Base(ckpt), got, want)
		}
	}
	t.Logf("%d checkpoints, %d entries", len(ckpts), want)
}

// TestDefaultStoreIndexesUniqueIDs: a projection on a unique id is the
// paper's headline PSF. A store with default options once stopped ingesting
// at ~391K distinct ids, when its fixed pool of overflow buckets ran out;
// the overflow buckets now grow, so 600K ids ingest and each is found, before
// and after recovery.
func TestDefaultStoreIndexesUniqueIDs(t *testing.T) {
	mem := storage.NewMem()
	s, err := Open(Options{Device: mem}) // a device, so Recover has a log
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.RegisterPSF(psf.Projection("id"))
	if err != nil {
		t.Fatal(err)
	}
	const n, batch = 600_000, 1000
	sess := s.NewSession()
	recs := make([][]byte, batch)
	for i := 0; i < n; i += batch {
		for j := range recs {
			recs[j] = fmt.Appendf(recs[j][:0], `{"id":%d}`, i+j)
		}
		if _, err := sess.Ingest(recs); err != nil {
			t.Fatalf("batch ending at record %d: %v", i+batch, err)
		}
	}
	sess.Close()
	lookups := func(s *Store) {
		t.Helper()
		for _, v := range []int{0, n / 2, n - 1} {
			found := 0
			if _, err := s.Lookup(PropertyNumber(id, float64(v)), func(Record) bool { found++; return true }); err != nil {
				t.Fatal(err)
			}
			if found != 1 {
				t.Fatalf("Lookup(id=%d) found %d records, want 1", v, found)
			}
		}
	}
	lookups(s)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, err := Recover(dir, RecoverOptions{Options: Options{Device: mem}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lookups(r)
}
