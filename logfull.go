package fishstore

import (
	"errors"
	"fmt"

	"fishstore/internal/storage"
	"fishstore/internal/trace"
)

// ErrLogFull is returned by Ingest, Flush, and Checkpoint while the store is
// refusing writes because the device is out of space. Unlike ErrDegraded it
// is a managed, recoverable condition: reclaim space (RecoverLogSpace, or
// automatically via Options.Retention) and ingestion resumes. The paper's
// ingestion model assumes the log can always grow (§3.1); a bounded device
// breaks that assumption, so the store turns ENOSPC into explicit
// backpressure instead of corruption-adjacent chaos.
var ErrLogFull = errors.New("fishstore: log device out of space")

// enterLogFull flips the store into the log-full state. The first cause wins
// until a successful recovery clears it; a store already degraded stays
// degraded (degraded is the stronger, unrecoverable state).
func (s *Store) enterLogFull(cause error) {
	if cause == nil || s.degraded.Load() || !s.logFull.CompareAndSwap(false, true) {
		return
	}
	msg := cause.Error()
	s.logFullCause.Store(&msg)
	s.metrics.logFullGauge.Set(1)
	s.metrics.event("store.log_full", trace.Str("cause", msg))
	if w := s.opts.FlightDumpWriter; w != nil {
		_ = s.DumpFlight(w)
	}
}

// LogFull reports whether the store is currently refusing ingestion because
// the device is out of space, and the cause.
func (s *Store) LogFull() (bool, string) {
	if !s.logFull.Load() {
		return false, ""
	}
	if c := s.logFullCause.Load(); c != nil {
		return true, *c
	}
	return true, ""
}

// RecoverLogSpace attempts to leave the ErrLogFull state. With ingestion
// quiesced and every scheduled flush finished, it:
//
//  1. When Options.Retention.MaxLiveBytes is set, logically truncate whole
//     pages from the oldest end of the log until the live footprint (tail
//     minus truncation point) fits the target. Page starts are record
//     boundaries (records never straddle pages), so the floor is always
//     valid. The tail's own page always stays live.
//  2. Reclaim the device space below the truncation point (hole-punching on
//     devices that support storage.Truncator; logical-only elsewhere).
//  3. Re-drive every sealed page above the truncation point whose flush
//     failed — the frames are still pinned in memory — retire the failed
//     pages below it unwritten, and, if a straddling allocator died mid
//     seal-and-advance, complete the interrupted tail handoff.
//
// On success the log-full flag clears and ingestion resumes. Callers without
// a retention policy can TruncateUntil manually first; RecoverLogSpace then
// reclaims whatever is already logically truncated. Safe to call
// concurrently (attempts are serialized) but not concurrently with Ingest on
// other sessions — blocked ingesters should be failing with ErrLogFull, not
// allocating.
func (s *Store) RecoverLogSpace() error {
	s.reclaimMu.Lock()
	defer s.reclaimMu.Unlock()
	if s.degraded.Load() {
		return ErrDegraded
	}
	if !s.logFull.Load() {
		return nil
	}

	// The flush retry and tail handoff require that no allocator is in
	// flight: the moment RetryFailedFlushes clears the sticky flush error, a
	// concurrent Ingest could complete the interrupted seal-and-advance
	// itself and start writing records into the next page — which
	// RecoverTail's own prepareFrame would then zero, silently erasing
	// published records. Ingestion holds ckptMu shared for the whole
	// allocate-publish window, so taking it exclusively is the quiesce.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// Flushes already scheduled finish before space is reclaimed: one that
	// lands afterwards would spend the reclaimed space, on a page the
	// truncation may have retired, and one that fails afterwards would put
	// the store back into the log-full state this call clears.
	s.log.SettleFlushes()

	if ret := s.opts.Retention; ret != nil && ret.MaxLiveBytes > 0 {
		tail := s.log.TailAddress()
		if tail > ret.MaxLiveBytes {
			// The first page start at or above tail-MaxLiveBytes: the
			// lowest record boundary that leaves at most MaxLiveBytes live.
			floor := tail - ret.MaxLiveBytes
			if off := s.log.OffsetOf(floor); off != 0 {
				floor += s.log.PageSize() - off
			}
			floor = min(floor, tail-s.log.OffsetOf(tail))
			if floor > s.TruncatedUntil() {
				if err := s.TruncateUntil(floor); err != nil {
					return fmt.Errorf("fishstore: retention truncation: %w", err)
				}
			}
		}
	}
	floor := s.TruncatedUntil()
	if err := storage.TruncateBefore(s.log.Device(), int64(floor)); err != nil {
		return fmt.Errorf("fishstore: device reclaim below %d: %w", floor, err)
	}

	if err := s.log.RetryFailedFlushes(floor); err != nil {
		if storage.IsNoSpace(err) {
			// Still full: the retention target did not free enough space.
			return fmt.Errorf("%w: %v", ErrLogFull, err)
		}
		s.enterDegraded(fmt.Errorf("flush retry after reclaim: %w", err))
		return err
	}
	if err := s.log.RecoverTail(nil); err != nil {
		if storage.IsNoSpace(err) {
			return fmt.Errorf("%w: %v", ErrLogFull, err)
		}
		s.enterDegraded(fmt.Errorf("tail recovery after reclaim: %w", err))
		return err
	}

	s.logFull.Store(false)
	s.logFullCause.Store(nil)
	s.logFullRecoveries.Add(1)
	s.metrics.logFullGauge.Set(0)
	s.metrics.logFullRecoveries.Inc()
	s.metrics.event("store.log_full_recovered", trace.Uint("floor", floor))
	return nil
}

// maybeRecoverLogSpace is the ingest-path hook: with AutoRecover armed it
// runs a recovery attempt and reports whether ingestion may proceed; without
// it the caller fails fast with ErrLogFull.
func (s *Store) maybeRecoverLogSpace() error {
	if !s.logFull.Load() {
		return nil
	}
	ret := s.opts.Retention
	if ret == nil || !ret.AutoRecover {
		return ErrLogFull
	}
	return s.RecoverLogSpace()
}
