package fishstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"fishstore/internal/hlog"
	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/storage"
)

// TestChainBadLinkEveryRoute corrupts the prev address of a live chain's
// head three ways and runs an index scan with the link's target in memory,
// in the page cache and in the speculation buffer (TestBorrowedPayloadScribble's
// layouts), with and without VerifyOnRead. The link lands on a header at the
// start of its page, so its back-offset leaves the page; on a header in the
// middle of a page; or on a payload word past the key pointers, set to a
// back-offset that reaches its own record's header, so only the slot check
// can reject it. Every walk must end in an error wrapping errBadLink, or with
// the link quarantined under VerifyOnRead: no panic, and no record but the
// head's emitted.
func TestChainBadLinkEveryRoute(t *testing.T) {
	layouts := []struct {
		name string
		opts Options
	}{
		{"memory", Options{PageBits: 22, MemPages: 4}},
		{"pagecache", Options{PageBits: 12, MemPages: 2, PageCachePages: 1024}},
		{"speculation", Options{PageBits: 12, MemPages: 2, PageCachePages: -1}},
	}
	for _, layout := range layouts {
		for _, verify := range []bool{false, true} {
			for _, target := range []string{"page-start", "header", "payload"} {
				name := fmt.Sprintf("%s/verify=%v/%s", layout.name, verify, target)
				t.Run(name, func(t *testing.T) {
					opts := layout.opts
					opts.VerifyOnRead = verify
					testChainBadLink(t, opts, layout.name == "memory", target)
				})
			}
		}
	}
}

func testChainBadLink(t *testing.T, opts Options, inMemory bool, target string) {
	mem := storage.NewMem()
	opts.Device, opts.TableBuckets = mem, 1<<12
	s := openTestStore(t, opts)
	stars, _, err := s.RegisterPSF(psf.Projection("stars"))
	if err != nil {
		t.Fatal(err)
	}
	var batch [][]byte
	for i := 0; i < 2000; i++ {
		batch = append(batch, yelpShaped(i))
	}
	ingestAll(t, s, batch)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// The record addresses, read from the device past the page cache, which
	// must not hold a page before its corruption.
	var addrs []uint64
	if _, _, _, err := walkDeviceLog(mem, opts.PageBits, hlog.BeginAddress, 0, func(addr uint64, _ record.Header, _ record.View) bool {
		addrs = append(addrs, addr)
		return true
	}); err != nil {
		t.Fatal(err)
	}

	five := PropertyNumber(stars, 5)
	slot, ok := s.table.FindEntry(five.hash())
	if !ok {
		t.Fatal("no chain for stars=5")
	}
	head := slot.Address()
	if head < s.log.HeadAddress() {
		t.Fatalf("chain head %d is not in memory", head)
	}
	// The target record: in the middle of the log, and of its page.
	y := addrs[len(addrs)/2]
	if s.log.OffsetOf(y) == 0 {
		y = addrs[len(addrs)/2+1]
	}
	if got := y >= s.log.HeadAddress(); got != inMemory {
		t.Fatalf("target record %d in memory = %v, want %v", y, got, inMemory)
	}
	hw, err := s.log.ReadWordsFromDevice(y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h := record.Header(hw[0]); h.NumPtrs() != 1 || h.ValueWords() != 0 || h.SizeWords() < 5 {
		t.Fatalf("target header %x: want one key pointer, no value region", hw[0])
	}

	var link uint64
	switch target {
	case "page-start":
		// A visible header decodes to a back-offset of 8192 words or more.
		link = addrs[0]
	case "header":
		link = y
	case "payload":
		// Word 3 follows the one key pointer: an odd offset, as a slot's
		// is, past the pointer region.
		const j = record.HeaderWords + record.WordsPerPointer
		link = y + j*8
		word := uint64(j) << 50 // a key pointer's word A: back-offset j, prev 0
		if inMemory {
			s.log.WordsAt(link, 1)[0] = word
		} else {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], word)
			if _, err := mem.WriteAt(b[:], int64(link)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if link >= head {
		t.Fatalf("corrupt link %d does not descend from head %d", link, head)
	}
	record.SetPrevAddress(&s.log.WordsAt(head, 1)[0], link)
	headBase := head - uint64(record.HeaderWords)*8 // the head record's only key pointer

	st, err := s.Scan(five, ScanOptions{Mode: ScanForceIndex}, func(r Record) bool {
		if r.Address != headBase {
			t.Errorf("emitted record %d past the corrupt link", r.Address)
		}
		return true
	})
	if opts.VerifyOnRead {
		if err != nil || st.Quarantined != 1 {
			t.Fatalf("VerifyOnRead: err %v, %d quarantined, want nil and 1", err, st.Quarantined)
		}
	} else if !errors.Is(err, errBadLink) {
		t.Fatalf("err %v, want one wrapping errBadLink", err)
	}
	if inMemory != (st.IOs == 0) || (opts.PageCachePages > 0) != (s.CacheStats().PageCache.Fills > 0) {
		t.Fatalf("the link's target took another read path: %+v, cache %+v", st, s.CacheStats().PageCache)
	}
}
