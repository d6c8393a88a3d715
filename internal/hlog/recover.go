package hlog

import (
	"fmt"

	"fishstore/internal/wordio"
)

// Recover reopens a log whose pages live on cfg.Device, positioning the
// tail at tailAddr and reloading the most recent pages into the circular
// buffer so ingestion and in-memory reads can resume (Appendix E).
func Recover(cfg Config, tailAddr Address) (*Log, error) {
	l, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if tailAddr < BeginAddress {
		return nil, fmt.Errorf("hlog: recovery tail %d below begin address", tailAddr)
	}
	tailPage := l.PageOf(tailAddr)
	tailOff := l.OffsetOf(tailAddr)
	if tailOff == 0 && tailAddr > 0 {
		// Tail exactly at a page boundary: open the page fresh.
		tailPage = l.PageOf(tailAddr)
	}

	firstMem := uint64(0)
	if tailPage+1 > uint64(l.memPages) {
		firstMem = tailPage + 1 - uint64(l.memPages)
	}

	// Load resident pages from the device straight into their frames. The
	// tail page may be only partially durable (e.g. a short file); tolerate
	// short reads as long as the durable prefix [pageStart, tailAddr) is
	// covered, and clear whatever a short read left past it.
	for p := firstMem; p <= tailPage; p++ {
		f := l.frameIndex(p)
		buf := wordio.Bytes(l.frames[f])
		n, err := l.device.ReadAt(buf, int64(l.address(p, 0)))
		need := int(l.pageSize)
		if p == tailPage {
			need = int(tailOff)
		}
		if n < need && err != nil {
			return nil, fmt.Errorf("hlog: recovery read of page %d: %w", p, err)
		}
		clear(buf[n:])
		l.frameOwner[f].Store(int64(p))
		l.frameFreeFor[f].Store(p)
	}
	// Zero the unwritten tail of the tail page (data beyond the recovery
	// point is discarded).
	tf := l.frameIndex(tailPage)
	for i := int(tailOff) / 8; i < l.pageWords; i++ {
		l.frames[tf][i] = 0
	}

	l.pagedTail.Store(pack(tailPage, tailOff))
	head := l.address(firstMem, 0)
	if head < BeginAddress {
		head = BeginAddress
	}
	l.headAddress.Store(head)
	l.safeHeadAddress.Store(head)
	l.flushedUntil.Store(tailAddr)
	return l, nil
}
