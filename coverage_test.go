package fishstore_test

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"fishstore"
	"fishstore/internal/storage"
)

// TestHistoricalIndexKeepsFullScans: a historical index (Appendix A) covers
// an old range with indirect records at the tail, while the old records
// themselves carry no key pointer for the PSF. A full scan over that range
// must still parse and re-evaluate them, so full, index and auto scans agree
// on every layout TestBorrowedPayloadScribble uses, and again after the
// store is checkpointed and recovered. Before intervals kept their
// provenance, the full scan matched by pointer there and found nothing.
func TestHistoricalIndexKeepsFullScans(t *testing.T) {
	for _, layout := range []struct {
		name   string
		layout func(*fishstore.Options)
	}{
		// The scan store with the whole log in its memory buffer.
		{"resident", func(o *fishstore.Options) { o.MemPages = 16 }},
		{"memory", func(o *fishstore.Options) { o.PageBits, o.MemPages = 22, 4 }},
		{"pagecache", func(o *fishstore.Options) {
			o.PageBits, o.MemPages, o.PageCachePages, o.VerifyOnRead = 12, 2, 1024, true
		}},
		{"speculation", func(o *fishstore.Options) {
			o.PageBits, o.MemPages, o.PageCachePages, o.VerifyOnRead = 12, 2, -1, true
		}},
	} {
		t.Run(layout.name, func(t *testing.T) {
			var opts fishstore.Options
			s, prop := openScanStore(t, storage.NewMem(), 60, func(o *fishstore.Options) {
				layout.layout(o)
				opts = *o
			})
			end := s.TailAddress()
			before := scanModes(t, s, prop, end)
			if len(before[fishstore.ScanForceFull]) == 0 {
				t.Fatal("no record matches before the build")
			}
			if _, err := s.BuildHistoricalIndex(prop.PSF, 0, end); err != nil {
				t.Fatal(err)
			}
			requireAgree(t, "after the build", scanModes(t, s, prop, end), before)

			dir := filepath.Join(t.TempDir(), "ckpt")
			if err := s.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, _, err := fishstore.Recover(dir, fishstore.RecoverOptions{Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			requireAgree(t, "after recovery", scanModes(t, r, prop, end), before)
		})
	}
}

// scanModes scans prop over [0, to) in each mode and returns each mode's
// matches in address order, payloads copied.
func scanModes(t *testing.T, s *fishstore.Store, prop fishstore.Property, to uint64) map[fishstore.ScanMode][]fishstore.Record {
	t.Helper()
	out := map[fishstore.ScanMode][]fishstore.Record{}
	for _, mode := range []fishstore.ScanMode{fishstore.ScanForceFull, fishstore.ScanForceIndex, fishstore.ScanAuto} {
		var recs []fishstore.Record
		if _, err := s.Scan(prop, fishstore.ScanOptions{To: to, Mode: mode}, func(r fishstore.Record) bool {
			recs = append(recs, fishstore.Record{Address: r.Address, Payload: bytes.Clone(r.Payload)})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(recs, func(a, b fishstore.Record) int { return int(a.Address) - int(b.Address) })
		out[mode] = recs
	}
	return out
}

// requireAgree fails unless every mode in got returned want's full-scan
// matches.
func requireAgree(t *testing.T, when string, got, want map[fishstore.ScanMode][]fishstore.Record) {
	t.Helper()
	same := func(a, b fishstore.Record) bool { return a.Address == b.Address && bytes.Equal(a.Payload, b.Payload) }
	for mode, recs := range got {
		if !slices.EqualFunc(recs, want[fishstore.ScanForceFull], same) {
			t.Errorf("%s: mode %v found %d records, want the %d a full scan found before the build",
				when, mode, len(recs), len(want[fishstore.ScanForceFull]))
		}
	}
}
