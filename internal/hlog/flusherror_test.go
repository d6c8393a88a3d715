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

// TestFlushTailLeavesFullPageToItsFlush: a checkpoint can meet a tail page
// filled exactly to its end, not yet sealed. FlushTail writes it, but keeps
// the durable boundary below the page end: the allocation that seals the
// page still schedules its flush, and once the boundary passed the end
// prepareFrame recycled the frame for the page MemPages later before that
// flush had copied it, so the flush wrote the new page's words over the old
// page on the device.
func TestFlushTailLeavesFullPageToItsFlush(t *testing.T) {
	l, em := newTestLog(t, 12, 4, storage.NewMem())
	g := em.Acquire()
	a, err := l.Allocate(g, 504) // page 0 starts at BeginAddress (64): 504 words fill it
	if err != nil {
		t.Fatal(err)
	}
	a.Words[0] = 0xfeed
	g.Release()
	if err := l.FlushTail(); err != nil {
		t.Fatal(err)
	}
	if got := l.FlushedUntil(); got >= 4096 {
		t.Fatalf("FlushTail of the full page 0 moved flushedUntil to %d, past the page end", got)
	}
	if words, err := l.ReadWordsFromDevice(a.Address, 1); err != nil || words[0] != 0xfeed {
		t.Fatalf("device word %x, %v; want the page written", words, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
