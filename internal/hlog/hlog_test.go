package hlog

import (
	"fmt"
	"sync"
	"testing"

	"fishstore/internal/epoch"
	"fishstore/internal/record"
	"fishstore/internal/storage"
)

func newTestLog(t *testing.T, pageBits uint, memPages int, dev storage.Device) (*Log, *epoch.Manager) {
	t.Helper()
	em := epoch.New()
	l, err := New(Config{PageBits: pageBits, MemPages: memPages, Device: dev, Epoch: em})
	if err != nil {
		t.Fatal(err)
	}
	return l, em
}

func TestNewValidation(t *testing.T) {
	em := epoch.New()
	if _, err := New(Config{PageBits: 4, MemPages: 4, Epoch: em}); err == nil {
		t.Fatal("accepted tiny page bits")
	}
	if _, err := New(Config{PageBits: 16, MemPages: 1, Epoch: em}); err == nil {
		t.Fatal("accepted single frame")
	}
	if _, err := New(Config{PageBits: 16, MemPages: 4}); err == nil {
		t.Fatal("accepted nil epoch")
	}
}

func TestAllocateSequential(t *testing.T) {
	l, em := newTestLog(t, 12, 4, storage.NewMem())
	g := em.Acquire()
	defer g.Release()

	prevEnd := BeginAddress
	for i := 0; i < 10; i++ {
		a, err := l.Allocate(g, 8) // 64 bytes
		if err != nil {
			t.Fatal(err)
		}
		if a.Address != prevEnd {
			t.Fatalf("allocation %d at %d, want %d", i, a.Address, prevEnd)
		}
		if len(a.Words) != 8 {
			t.Fatalf("got %d words", len(a.Words))
		}
		prevEnd = a.Address + 64
	}
	if l.TailAddress() != prevEnd {
		t.Fatalf("tail = %d, want %d", l.TailAddress(), prevEnd)
	}
}

func TestAllocateTooLarge(t *testing.T) {
	l, em := newTestLog(t, 12, 4, storage.NewMem())
	g := em.Acquire()
	defer g.Release()
	if _, err := l.Allocate(g, 1024); err == nil {
		t.Fatal("allocated a record larger than a page")
	}
}

func TestPageCrossingWritesFiller(t *testing.T) {
	l, em := newTestLog(t, 12, 4, storage.NewMem()) // 4KB pages
	g := em.Acquire()
	defer g.Release()

	// Fill most of page 0: BeginAddress=64, leave 100 words free.
	a1, err := l.Allocate(g, (4096-64)/8-100)
	if err != nil {
		t.Fatal(err)
	}
	_ = a1
	// Allocate something too big for the remainder: must land on page 1.
	a2, err := l.Allocate(g, 200)
	if err != nil {
		t.Fatal(err)
	}
	if l.PageOf(a2.Address) != 1 || l.OffsetOf(a2.Address) != 0 {
		t.Fatalf("crossing allocation at page %d off %d", l.PageOf(a2.Address), l.OffsetOf(a2.Address))
	}
	// The hole at the end of page 0 must carry a filler header.
	holeAddr := a1.Address + uint64(len(a1.Words))*8
	words := l.WordsAt(holeAddr, 1)
	//lint:ignore atomicfield single-threaded test: no splicer runs, so a plain read of the live frame is stable
	h := record.Header(words[0])
	if !h.Filler() || h.SizeWords() != 100 {
		t.Fatalf("hole header = %#x, want filler of 100 words", uint64(h))
	}
}

func TestWordsRoundTripThroughFrame(t *testing.T) {
	l, em := newTestLog(t, 12, 4, storage.NewMem())
	g := em.Acquire()
	defer g.Release()
	a, err := l.Allocate(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Words {
		a.Words[i] = uint64(i + 100)
	}
	got := l.WordsAt(a.Address, 4)
	for i := range got {
		//lint:ignore atomicfield single-threaded test: no splicer runs, so a plain read of the live frame is stable
		w := got[i]
		if w != uint64(i+100) {
			t.Fatalf("word %d = %d", i, w)
		}
	}
}

func TestFlushOnEvictionAndDeviceReadback(t *testing.T) {
	dev := storage.NewMem()
	l, em := newTestLog(t, 12, 2, dev) // 4KB pages, 2 frames
	g := em.Acquire()

	// Write an identifiable word at the start of each allocation and fill
	// several pages so early ones are evicted and flushed.
	type alloc struct {
		addr Address
		val  uint64
	}
	var allocs []alloc
	for i := 0; i < 64; i++ {
		a, err := l.Allocate(g, 64) // 512B each; 8 per page
		if err != nil {
			t.Fatal(err)
		}
		v := uint64(0xabc000 + i)
		a.Words[0] = v
		allocs = append(allocs, alloc{a.addr(), v})
		g.Refresh()
	}
	g.Release()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything must be durable now; read each word back from the device.
	for i, al := range allocs {
		words, err := l.ReadWordsFromDevice(al.addr, 1)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if words[0] != al.val {
			t.Fatalf("alloc %d at %d: device word %x, want %x", i, al.addr, words[0], al.val)
		}
	}
}

func TestHeadAdvancesOnWrap(t *testing.T) {
	dev := storage.NewMem()
	l, em := newTestLog(t, 12, 2, dev)
	g := em.Acquire()
	for i := 0; i < 40; i++ { // ~5 pages of 512B records
		if _, err := l.Allocate(g, 64); err != nil {
			t.Fatal(err)
		}
		g.Refresh()
	}
	if l.SafeHeadAddress() == BeginAddress {
		t.Fatal("safe head never advanced despite wrapping the buffer")
	}
	if l.SafeHeadAddress() > l.TailAddress() {
		t.Fatal("head beyond tail")
	}
	// In-memory region must be at most memPages pages.
	if l.TailAddress()-l.SafeHeadAddress() > uint64(l.MemPages())*l.PageSize() {
		t.Fatalf("in-memory span too large: head %d tail %d", l.SafeHeadAddress(), l.TailAddress())
	}
	g.Release()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushedUntilMonotonicAndContiguous(t *testing.T) {
	dev := storage.NewMem()
	l, em := newTestLog(t, 12, 4, dev)
	g := em.Acquire()
	prev := uint64(0)
	for i := 0; i < 200; i++ {
		if _, err := l.Allocate(g, 32); err != nil {
			t.Fatal(err)
		}
		g.Refresh()
		fu := l.FlushedUntil()
		if fu < prev {
			t.Fatalf("flushedUntil went backwards %d -> %d", prev, fu)
		}
		prev = fu
	}
	g.Release()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushTailMakesTailDurable(t *testing.T) {
	dev := storage.NewMem()
	l, em := newTestLog(t, 12, 4, dev)
	g := em.Acquire()
	a, err := l.Allocate(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	a.Words[0] = 0xfeed
	g.Release()
	if err := l.FlushTail(); err != nil {
		t.Fatal(err)
	}
	if l.FlushedUntil() < a.Address+32 {
		t.Fatalf("flushedUntil %d does not cover tail %d", l.FlushedUntil(), a.Address+32)
	}
	words, err := l.ReadWordsFromDevice(a.Address, 1)
	if err != nil {
		t.Fatal(err)
	}
	if words[0] != 0xfeed {
		t.Fatalf("device word %x", words[0])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocationNoOverlap(t *testing.T) {
	dev := storage.NewMem()
	l, em := newTestLog(t, 14, 4, dev) // 16KB pages
	const workers = 8
	const perWorker = 300

	var mu sync.Mutex
	ranges := make(map[uint64]uint64) // start -> end

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := em.Acquire()
			defer g.Release()
			for i := 0; i < perWorker; i++ {
				size := 8 + (i*7+w)%64
				a, err := l.Allocate(g, size)
				if err != nil {
					t.Error(err)
					return
				}
				// Touch the words to catch frame aliasing under -race.
				for j := range a.Words {
					a.Words[j] = a.Address + uint64(j)
				}
				mu.Lock()
				ranges[a.Address] = a.Address + uint64(size)*8
				mu.Unlock()
				if i%16 == 0 {
					g.Refresh()
				}
			}
		}(w)
	}
	wg.Wait()

	// Verify no two allocations overlap.
	starts := make([]uint64, 0, len(ranges))
	for s := range ranges {
		starts = append(starts, s)
	}
	if len(starts) != workers*perWorker {
		t.Fatalf("lost allocations: %d != %d", len(starts), workers*perWorker)
	}
	// Sort and check.
	for i := 1; i < len(starts); i++ {
		for j := i; j > 0 && starts[j] < starts[j-1]; j-- {
			starts[j], starts[j-1] = starts[j-1], starts[j]
		}
	}
	for i := 1; i < len(starts); i++ {
		if ranges[starts[i-1]] > starts[i] {
			t.Fatalf("overlap: [%d,%d) and [%d,...)", starts[i-1], ranges[starts[i-1]], starts[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateAfterClose(t *testing.T) {
	l, em := newTestLog(t, 12, 4, storage.NewMem())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	g := em.Acquire()
	defer g.Release()
	if _, err := l.Allocate(g, 8); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestNullDeviceIngestion(t *testing.T) {
	// With a null device the log still recycles frames; reads from disk fail
	// but in-memory reads work.
	l, em := newTestLog(t, 12, 2, nil)
	g := em.Acquire()
	for i := 0; i < 100; i++ {
		if _, err := l.Allocate(g, 32); err != nil {
			t.Fatal(err)
		}
		g.Refresh()
	}
	g.Release()
	_ = l.Close() // a null device cannot flush the tail; the error is by design
}

func TestPageWordsFrom(t *testing.T) {
	l, em := newTestLog(t, 12, 4, storage.NewMem())
	g := em.Acquire()
	defer g.Release()
	a, err := l.Allocate(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	a.Words[0] = 42
	ws := l.PageWordsFrom(a.Address)
	if len(ws) != 8 { // exactly up to the tail
		t.Fatalf("PageWordsFrom len = %d, want 8", len(ws))
	}
	if ws[0] != 42 {
		t.Fatalf("ws[0] = %d", ws[0])
	}
}

func (a Allocation) addr() Address { return a.Address }

// TestAddressHelpers pins the carry rules of both address encodings:
// address() adds, so an offset of a whole page lands at the start of the
// next page (OR would alias it into odd page numbers), and pack() masks, so
// a transiently overflowed tail offset cannot bleed into the page number.
func TestAddressHelpers(t *testing.T) {
	l, _ := newTestLog(t, 12, 4, storage.NewMem())
	for _, tc := range []struct{ page, off, wantPage, wantOff uint64 }{
		{3, 128, 3, 128},
		{3, l.PageSize(), 4, 0},
		{4, l.PageSize(), 5, 0},
		{5, l.PageSize() + 8, 6, 8},
	} {
		addr := l.address(tc.page, tc.off)
		if l.PageOf(addr) != tc.wantPage || l.OffsetOf(addr) != tc.wantOff {
			t.Errorf("address(%d, %d) = page %d offset %d, want page %d offset %d",
				tc.page, tc.off, l.PageOf(addr), l.OffsetOf(addr), tc.wantPage, tc.wantOff)
		}
	}
	for _, tc := range []struct{ page, off, wantOff uint64 }{
		{0, BeginAddress, BeginAddress},
		{3, offsetMask, offsetMask},
		{3, offsetMask + 1, 0},
		{6, offsetMask + 1 + 64, 64},
		{7, offsetMask + 1 + 64, 64},
	} {
		if page, off := unpack(pack(tc.page, tc.off)); page != tc.page || off != tc.wantOff {
			t.Errorf("unpack(pack(%d, %#x)) = (%d, %#x), want (%d, %#x)", tc.page, tc.off, page, off, tc.page, tc.wantOff)
		}
	}
}

func BenchmarkAllocate(b *testing.B) {
	em := epoch.New()
	l, err := New(Config{PageBits: 22, MemPages: 8, Device: storage.NewNull(), Epoch: em})
	if err != nil {
		b.Fatal(err)
	}
	g := em.Acquire()
	defer g.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Allocate(g, 16); err != nil {
			b.Fatal(err)
		}
		if i%256 == 0 {
			g.Refresh()
		}
	}
}

func BenchmarkAllocateParallel(b *testing.B) {
	em := epoch.New()
	l, err := New(Config{PageBits: 24, MemPages: 8, Device: storage.NewNull(), Epoch: em})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		g := em.Acquire()
		defer g.Release()
		i := 0
		for pb.Next() {
			if _, err := l.Allocate(g, 16); err != nil {
				b.Error(err)
				return
			}
			if i%256 == 0 {
				g.Refresh()
			}
			i++
		}
	})
}

func TestManyPagesStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	dev := storage.NewMem()
	l, em := newTestLog(t, 12, 3, dev)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := em.Acquire()
			defer g.Release()
			for i := 0; i < 2000; i++ {
				a, err := l.Allocate(g, 8+(i%32))
				if err != nil {
					t.Error(err)
					return
				}
				a.Words[0] = uint64(w)<<32 | uint64(i)&0xffffffff
				if i%8 == 0 {
					g.Refresh()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Println("final tail:", l.TailAddress())
}

// TestFramesAllocatedOnFirstUse: a new log holds one frame, and each page
// allocates its frame when it opens, so a log smaller than its buffer never
// pays for the rest of it.
func TestFramesAllocatedOnFirstUse(t *testing.T) {
	em := epoch.New()
	l, err := New(Config{PageBits: 12, MemPages: 8, Epoch: em})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := allocatedFrames(l); n != 1 || l.frames[0] == nil {
		t.Fatalf("new log holds %d frames, want only frame 0", n)
	}
	g := em.Acquire()
	defer g.Release()
	for page := uint64(1); page < 12; page++ { // wraps the 8-frame buffer
		for open, _ := unpack(l.pagedTail.Load()); open < page; open, _ = unpack(l.pagedTail.Load()) {
			if _, err := l.Allocate(g, 64); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := allocatedFrames(l), int(min(page+1, 8)); got != want {
			t.Fatalf("page %d open: %d frames allocated, want %d", page, got, want)
		}
	}
}

// allocatedFrames counts the frames l has allocated.
func allocatedFrames(l *Log) (n int) {
	for _, f := range l.frames {
		if f != nil {
			n++
		}
	}
	return n
}
