package fishstore

import (
	"fmt"
	"sync/atomic"

	"fishstore/internal/hlog"
	"fishstore/internal/record"
)

// TruncateUntil logically drops the log prefix below addr: subsequent scans
// clamp their range to the new begin address and stale hash-chain tails
// below it are treated as terminated. This is FishStore's retention story —
// once older raw data has migrated downstream (§1.4), the prefix can be
// reclaimed. addr must be a record boundary (use an address previously
// observed from TailAddress or Record.Address).
//
// Truncation is logical: device space is the caller's to reclaim (e.g. by
// switching files at a truncation point). It never touches in-memory pages.
func (s *Store) TruncateUntil(addr uint64) error {
	if addr > s.log.TailAddress() {
		return fmt.Errorf("fishstore: truncation point %d beyond tail %d", addr, s.log.TailAddress())
	}
	for {
		old := s.truncatedUntil.Load()
		if addr <= old {
			return nil // monotonic
		}
		if s.truncatedUntil.CompareAndSwap(old, addr) {
			// Drop cached pages below the new floor. A page straddling it
			// stays cached — clampRange keeps scans above the floor, so its
			// below-floor bytes are never surfaced.
			if s.pcache != nil {
				s.pcache.InvalidateBelow(s.log.PageOf(addr))
			}
			return nil
		}
	}
}

// logBegin returns the current logical begin address: hlog.BeginAddress if
// never truncated, else the truncation point. It is also the chain floor:
// hash-chain pointers below it are treated as terminated rather than
// followed, since the records they reference have been logically
// reclaimed. Scans and the log verifier share this boundary.
func (s *Store) logBegin() uint64 {
	return max(s.truncatedUntil.Load(), hlog.BeginAddress)
}

// Invalidate logically deletes the record at addr: its header's invalid bit
// is set atomically, so every subsequent scan, lookup, and subscription
// skips it while its chain links keep working for older records. Combined
// with appending a new version, this provides the append-and-invalidate
// update pattern the paper leaves as future work ("updates can also be
// supported with modifications to FishStore").
//
// The record must still be resident in the in-memory buffer (the immutable
// on-storage prefix cannot be patched); ErrNotResident is returned
// otherwise.
func (s *Store) Invalidate(addr uint64) error {
	g := s.epoch.Acquire()
	defer g.Release()
	if addr < s.log.HeadAddress() || addr >= s.log.TailAddress() {
		return ErrNotResident
	}
	hw := s.log.WordsAt(addr, 1)
	h := record.UnpackHeader(atomic.LoadUint64(&hw[0]))
	if h.SizeWords == 0 || h.Filler {
		return fmt.Errorf("fishstore: no record at %d", addr)
	}
	view := record.View{Words: s.log.WordsAt(addr, h.SizeWords)}
	view.SetInvalid()
	return nil
}

// ErrNotResident is returned by Invalidate for records already evicted to
// storage.
var ErrNotResident = errNotResident{}

type errNotResident struct{}

func (errNotResident) Error() string {
	return "fishstore: record no longer resident in the in-memory buffer"
}

// Update appends a new version of a record and logically deletes the old
// one — the append-and-invalidate update pattern (the paper defers in-place
// updates to future work; appending preserves the no-forward-link and
// zero-write-amplification invariants). The old record must still be
// resident (ErrNotResident otherwise). On success the new version is
// indexed under the currently active PSFs.
func (sess *Session) Update(oldAddr uint64, payload []byte) (IngestStats, error) {
	st, err := sess.Ingest([][]byte{payload})
	if err != nil {
		return st, err
	}
	if err := sess.store.Invalidate(oldAddr); err != nil {
		return st, fmt.Errorf("fishstore: new version appended but old not invalidated: %w", err)
	}
	return st, nil
}
