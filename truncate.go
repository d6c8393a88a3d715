package fishstore

import (
	"fmt"

	"fishstore/internal/hlog"
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
