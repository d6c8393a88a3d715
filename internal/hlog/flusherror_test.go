package hlog

import (
	"testing"
	"time"

	"fishstore/internal/storage"
)

// TestAllocateAfterFlushFailure: when a page flush fails, the straddling
// allocator used to bail out of sealAndAdvance without advancing the paged
// tail, leaving every other allocator spinning in waitForPage forever. After
// the fix, Allocate must return the sticky flush error promptly instead of
// deadlocking.
func TestAllocateAfterFlushFailure(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NewMem(), storage.FaultConfig{Seed: 1})
	l, em := newTestLog(t, 12, 4, fd)
	fd.CutNow() // every write from here on fails

	g := em.Acquire()
	var sawErr bool
	for i := 0; i < 64; i++ { // ~12 pages of 100-word records forces evictions
		if _, err := l.Allocate(g, 100); err != nil {
			sawErr = true
			break
		}
	}
	g.Release()
	if !sawErr {
		t.Fatal("no allocation ever failed despite a dead device")
	}

	done := make(chan error, 1)
	go func() {
		g2 := em.Acquire()
		defer g2.Release()
		_, err := l.Allocate(g2, 100)
		//lint:ignore epochguard the channel has buffer 1 and a single sender, so the send cannot block
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("allocation succeeded on a dead device")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Allocate deadlocked after a flush failure")
	}
	_ = l.Close() // the device is cut: the final tail flush fails by design
}

// TestTailAddressExactlyFullOddPage: when an allocation exactly fills a page,
// pagedTail legitimately rests at (page, pageSize) until the next allocation
// seals it. TailAddress used to compose the address with OR, so the clamped
// pageSize offset aliased into bit pageBits — already set for odd page
// numbers — rendering the tail a full page too low and silently excluding
// the last page from scans and checkpoints.
func TestTailAddressExactlyFullOddPage(t *testing.T) {
	l, em := newTestLog(t, 12, 4, storage.NewMem())
	g := em.Acquire()

	// Page 0 starts at BeginAddress (64): 504 words fill it exactly.
	if _, err := l.Allocate(g, 504); err != nil {
		t.Fatal(err)
	}
	if got := l.TailAddress(); got != 4096 {
		t.Fatalf("tail after filling page 0 = %d, want 4096", got)
	}
	// 512 words exactly fill odd page 1.
	if _, err := l.Allocate(g, 512); err != nil {
		t.Fatal(err)
	}
	if got := l.TailAddress(); got != 8192 {
		t.Fatalf("tail after exactly filling page 1 = %d, want 8192", got)
	}
	g.Release()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryFailedFlushesRetiresPagesBelowFloor: after a disk-full failure,
// the retry re-drives only the failed pages above the caller's truncation
// floor. Those below it are retired unwritten, so they do not take the
// device space the caller has just reclaimed, and flushedUntil still
// advances past them.
func TestRetryFailedFlushesRetiresPagesBelowFloor(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NewMem(), storage.FaultConfig{})
	l, em := newTestLog(t, 12, 8, fd)
	fd.ArmENOSPC(1) // every flush fails until space is reclaimed

	g := em.Acquire()
	for l.PageOf(l.TailAddress()) < 3 {
		if _, err := l.Allocate(g, 100); err != nil {
			t.Fatal(err)
		}
	}
	g.Release()
	// Settle the scheduled flushes of pages 0-2, as Close does.
	l.epoch.WaitForSafe(l.epoch.Current() - 1)
	l.flushWG.Wait()
	if n := l.FailedFlushes(); n != 3 {
		t.Fatalf("failed flushes = %d, want 3", n)
	}

	floor := l.address(2, 0)
	if err := fd.TruncateBefore(int64(floor)); err != nil {
		t.Fatal(err)
	}
	writes := fd.Stats().Writes
	if err := l.RetryFailedFlushes(floor); err != nil {
		t.Fatal(err)
	}
	if got := fd.Stats().Writes - writes; got != 1 {
		t.Fatalf("retry issued %d writes, want 1 (page 2 only)", got)
	}
	if used := fd.SpaceUsed(); used != int64(l.PageSize()) {
		t.Fatalf("device holds %d bytes, want one page", used)
	}
	if l.FlushError() != nil || l.FailedFlushes() != 0 {
		t.Fatalf("flush error %v with %d failed pages after the retry", l.FlushError(), l.FailedFlushes())
	}
	if got, want := l.FlushedUntil(), l.address(3, 0); got != want {
		t.Fatalf("flushedUntil = %d, want %d", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
