package fishstore

import (
	"bytes"
	"path/filepath"
	"testing"

	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/storage"
)

// ingestAbandoned writes payload as Ingest does and links its key pointers,
// then abandons the copy as a badCAS reallocation does instead of publishing
// it. The copy stays on every chain it joined; its address is returned.
func ingestAbandoned(t *testing.T, sess *Session, payload []byte) uint64 {
	t.Helper()
	sess.guard.Protect()
	defer sess.guard.Unprotect()
	if err := sess.refreshMeta(); err != nil {
		t.Fatal(err)
	}
	parsed, perr := sess.psess.Parse(payload)
	sess.buildPointers(payload, parsed, perr != nil)
	spec := record.Spec{Payload: payload, Pointers: sess.ptrSpecs, ValueRegion: sess.valueRegion, Checksum: true}
	alloc, err := sess.store.log.Allocate(sess.guard, spec.SizeWords())
	if err != nil {
		t.Fatal(err)
	}
	spec.Write(alloc.Words)
	view := record.View{Words: alloc.Words}
	if ok, err := sess.linkAll(alloc.Address, view); !ok || err != nil {
		t.Fatalf("linking the copy to abandon: ok %v, err %v", ok, err)
	}
	view.Abandon()
	sess.store.invalidated.Add(1)
	return alloc.Address
}

// requireAbandonedSkipped checks that index scan, full scan, Lookup and
// Iterate surface the n live records matching "spark" (one of them the
// republished payload) and never the abandoned copy at addr, and that none
// of them quarantines a record.
func requireAbandonedSkipped(t *testing.T, stage string, s *Store, id psf.ID, addr uint64, n int) {
	t.Helper()
	prop := PropertyString(id, "spark")
	check := func(how string, st ScanStats, err error, got []uint64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %s: %v", stage, how, err)
		}
		for _, a := range got {
			if a == addr {
				t.Fatalf("%s: %s surfaced the abandoned copy at %d", stage, how, addr)
			}
		}
		if len(got) != n || st.Quarantined != 0 {
			t.Fatalf("%s: %s surfaced %d records and quarantined %d, want %d and 0",
				stage, how, len(got), st.Quarantined, n)
		}
	}
	collect := func(got *[]uint64) func(Record) bool {
		return func(r Record) bool { *got = append(*got, r.Address); return true }
	}
	for _, mode := range []ScanMode{ScanForceIndex, ScanForceFull} {
		var got []uint64
		st, err := s.Scan(prop, ScanOptions{Mode: mode}, collect(&got))
		check(mode.String(), st, err, got)
	}
	var got []uint64
	st, err := s.Lookup(prop, collect(&got))
	check("Lookup", st, err, got)
	got = got[:0]
	err = s.Iterate(0, 0, collect(&got))
	check("Iterate", ScanStats{}, err, got)
}

// TestAbandonedCopySkippedEverywhere: a copy its session abandoned is
// skipped by every read path while resident, after its page is flushed and
// evicted (the invalid bit travels in the sealed header), and after Recover
// replays it. A subscriber never receives it, since only publication
// notifies.
func TestAbandonedCopySkippedEverywhere(t *testing.T) {
	mem := storage.NewMem()
	opts := Options{Device: mem, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8, VerifyOnRead: true}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(PropertyString(id, "spark"), SubscribeOptions{Buffer: 512})
	defer sub.Cancel()
	sess := s.NewSession()
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := sess.Ingest([][]byte{genEvent(i, "PushEvent", "spark")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0, 5)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	// Abandon a copy, then republish its payload, as a badCAS retry does.
	payload := genEvent(5, "PushEvent", "spark")
	addr := ingestAbandoned(t, sess, payload)
	ingest(5, 10)
	if s.Stats().InvalidatedRecs != 1 {
		t.Fatalf("InvalidatedRecs = %d, want 1", s.Stats().InvalidatedRecs)
	}
	if addr < s.HeadAddress() {
		t.Fatalf("abandoned copy at %d already evicted (head %d)", addr, s.HeadAddress())
	}
	requireAbandonedSkipped(t, "resident", s, id, addr, 10)
	for i := 0; i < 10; i++ {
		if r := <-sub.Records(); r.Address == addr || i == 5 && !bytes.Equal(r.Payload, payload) {
			t.Fatalf("subscription record %d at %d: %q", i, r.Address, r.Payload)
		}
	}

	ingest(10, 200) // push the copy's page below the head
	sess.Close()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if addr >= s.HeadAddress() {
		t.Fatalf("abandoned copy at %d still resident (head %d)", addr, s.HeadAddress())
	}
	requireAbandonedSkipped(t, "evicted", s, id, addr, 200)
	if rep, err := s.VerifyLog(VerifyOptions{}); err != nil || !rep.OK() {
		t.Fatalf("fsck with an abandoned copy: %v, %v", err, rep.Corruption)
	}
	if len(sub.Records()) != 190 {
		t.Fatalf("subscription holds %d records, want the 190 published since", len(sub.Records()))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, info, err := Recover(dir, RecoverOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info.ReplayedRecords != 195 {
		t.Fatalf("replayed %d suffix records, want the 195 live ones past the checkpoint", info.ReplayedRecords)
	}
	requireAbandonedSkipped(t, "recovered", r, id, addr, 200)
}
