package hlog

import (
	"fmt"

	"fishstore/internal/wordio"
)

// Recover reopens a log whose pages live on cfg.Device, positioning the
// tail at tailAddr and reloading the most recent pages, up to MemPages of
// them ending with the tail page, so ingestion and in-memory reads resume
// where they left off (Appendix E). Only those pages' frames are allocated:
// a log shorter than its buffer pays for its own pages, not for MemPages.
// (Those pages always include one in frame 0, the frame New opens.)
func Recover(cfg Config, tailAddr Address) (*Log, error) {
	l, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if tailAddr < BeginAddress {
		return nil, fmt.Errorf("hlog: recovery tail %d below begin address", tailAddr)
	}
	tailPage, tailOff := l.PageOf(tailAddr), l.OffsetOf(tailAddr)
	firstMem := uint64(0)
	if tailPage+1 > uint64(l.memPages) {
		firstMem = tailPage + 1 - uint64(l.memPages)
	}

	// Read each resident page straight into its cleared frame; of the tail
	// page only the durable prefix [pageStart, tailAddr), so data beyond the
	// recovery point is discarded. A short read is fine as long as it covers
	// what is needed; whatever it left past that is cleared.
	for p := firstMem; p <= tailPage; p++ {
		f := l.frameIndex(p)
		buf := wordio.Bytes(l.openFrame(f))
		if p == tailPage {
			buf = buf[:tailOff]
		}
		if len(buf) > 0 {
			n, err := l.device.ReadAt(buf, int64(l.address(p, 0)))
			if n < len(buf) && err != nil {
				return nil, fmt.Errorf("hlog: recovery read of page %d: %w", p, err)
			}
			clear(buf[n:])
		}
		l.frameFreeFor[f].Store(p)
	}

	l.pagedTail.Store(pack(tailPage, tailOff))
	head := max(l.address(firstMem, 0), BeginAddress)
	l.headAddress.Store(head)
	l.safeHeadAddress.Store(head)
	l.flushedUntil.Store(tailAddr)
	return l, nil
}
