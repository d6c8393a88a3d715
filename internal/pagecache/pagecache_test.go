package pagecache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// pattern is the word i of page's fill number gen: distinct for every
// (page, fill, word), so a frame reused under a holder shows.
func pattern(page, gen uint64, i int) uint64 {
	return (page&0xffff)<<48 | (gen&0xffff)<<32 | uint64(i)&0xffffffff
}

// loader fills page with generation 0 of its pattern, allocating like a
// device loader does for a frame that never held a page.
func loader(page uint64, n int) Loader {
	return func(dst []uint64) ([]uint64, error) {
		if dst == nil {
			dst = make([]uint64, n)
		}
		for i := range dst {
			dst[i] = pattern(page, 0, i)
		}
		return dst, nil
	}
}

func mustLoad(t *testing.T, c *Cache, page uint64) *Page {
	t.Helper()
	p, _, err := c.GetOrLoad(page, loader(page, 8))
	if err != nil || p == nil {
		t.Fatalf("GetOrLoad(%d): page=%v err=%v", page, p, err)
	}
	return p
}

func TestGetOrLoadReadThrough(t *testing.T) {
	c := New(32, 8)
	loads := 0
	load := func(dst []uint64) ([]uint64, error) { loads++; return loader(7, 8)(dst) }

	p, hit, err := c.GetOrLoad(7, load)
	if err != nil || hit || p == nil {
		t.Fatalf("first GetOrLoad: page=%v hit=%v err=%v", p, hit, err)
	}
	if w := p.Words()[3]; w != pattern(7, 0, 3) {
		t.Fatalf("wrong words loaded: %x", w)
	}
	p2, hit, err := c.GetOrLoad(7, load)
	if err != nil || !hit || p2 != p {
		t.Fatalf("second GetOrLoad: same page=%v hit=%v err=%v", p2 == p, hit, err)
	}
	if got := p.pins.Load(); got != 2 {
		t.Fatalf("page pinned %d times, want 2", got)
	}
	p.Release()
	p2.Release()
	if loads != 1 {
		t.Fatalf("load ran %d times, want 1", loads)
	}
	st := c.Stats()
	if st.Fills != 1 || st.Hits != 1 || st.Misses != 1 || st.Pages != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	c := New(32, 8)
	boom := errors.New("boom")
	if _, _, err := c.GetOrLoad(3, func([]uint64) ([]uint64, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed load was cached")
	}
	p, hit, err := c.GetOrLoad(3, loader(3, 8))
	if err != nil || hit || p == nil {
		t.Fatalf("retry after failed load: page=%v hit=%v err=%v", p, hit, err)
	}
	p.Release()
}

func TestSingleflightSharesOneLoad(t *testing.T) {
	c := New(32, 8)
	var loads atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	pages := make([]*Page, 8)
	for i := range pages {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _, err := c.GetOrLoad(5, func(dst []uint64) ([]uint64, error) {
				loads.Add(1)
				<-release
				return loader(5, 8)(dst)
			})
			if err != nil || p == nil {
				t.Errorf("GetOrLoad: page=%v err=%v", p, err)
				return
			}
			if w := p.Words()[1]; w != pattern(5, 0, 1) {
				t.Errorf("joined page holds %x", w)
			}
			pages[i] = p
		}()
	}
	// Let the other goroutines pile up on the in-flight fill as joiners,
	// then release it.
	for joined := 0; joined < len(pages)-1; runtime.Gosched() {
		c.fillMu.Lock()
		if p := c.inflight[5]; p != nil {
			joined = p.waiters
		}
		c.fillMu.Unlock()
	}
	close(release)
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Fatalf("load ran %d times, want 1", got)
	}
	// The filler and every joiner held one pin.
	p := pages[0]
	if got := p.pins.Load(); got != int32(len(pages)) {
		t.Fatalf("page pinned %d times, want %d", got, len(pages))
	}
	for _, q := range pages {
		if q != p {
			t.Fatal("callers received different pages")
		}
		q.Release()
	}
	if got := p.pins.Load(); got != 0 {
		t.Fatalf("pins = %d after every release", got)
	}
	if st := c.Stats(); st.Hits != int64(len(pages)-1) || st.Misses != 1 {
		t.Fatalf("stats = %+v: want one miss and %d hits", st, len(pages)-1)
	}
}

func TestJoinersShareLoadError(t *testing.T) {
	c := New(16, 8) // 1 frame per shard
	boom := errors.New("boom")
	release := make(chan struct{})
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _, err := c.GetOrLoad(0, func([]uint64) ([]uint64, error) {
				<-release
				return nil, boom
			})
			if p != nil {
				t.Error("a failed fill returned a page")
			}
			errs[i] = err
		}()
	}
	for joined := 0; joined < len(errs)-1; runtime.Gosched() {
		c.fillMu.Lock()
		if p := c.inflight[0]; p != nil {
			joined = p.waiters
		}
		c.fillMu.Unlock()
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want boom", i, err)
		}
	}
	// Once every joiner has read the error, the shard's one frame is free.
	p, hit, err := c.GetOrLoadNoEvict(0, loader(0, 8))
	if err != nil || hit || p == nil {
		t.Fatalf("fill after a failed shared fill: page=%v hit=%v err=%v", p, hit, err)
	}
	p.Release()
}

func TestEvictionBoundsCapacity(t *testing.T) {
	const capacity = 32
	c := New(capacity, 8)
	for p := uint64(0); p < 4*capacity; p++ {
		mustLoad(t, c, p).Release()
	}
	if got := c.Len(); got > capacity {
		t.Fatalf("cache holds %d pages, capacity %d", got, capacity)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
}

func TestClockKeepsHotPage(t *testing.T) {
	// One shard's worth of pages, all mapping to shard 0 (multiples of 16),
	// with page 0 re-referenced between fills: the CLOCK sweep should prefer
	// evicting unreferenced pages.
	c := New(32, 8) // 2 per shard
	mustLoad(t, c, 0).Release()
	mustLoad(t, c, 16).Release()
	c.Get(0).Release() // set page 0's reference bit
	mustLoad(t, c, 32).Release()
	p := c.Get(0)
	if p == nil {
		t.Fatal("hot page 0 was evicted ahead of cold page 16")
	}
	p.Release()
}

func TestPinnedPageNotRecycled(t *testing.T) {
	c := New(32, 8) // 2 frames per shard
	held := mustLoad(t, c, 0)
	// Churn shard 0 (pages ≡ 0 mod 16) through its other frame, each fill
	// writing its own generation of the pattern into whatever frame it got.
	for gen := uint64(1); gen <= 64; gen++ {
		page := gen * 16
		p, _, err := c.GetOrLoad(page, func(dst []uint64) ([]uint64, error) {
			if dst == nil {
				dst = make([]uint64, 8)
			}
			for i := range dst {
				dst[i] = pattern(page, gen, i)
			}
			return dst, nil
		})
		if err != nil || p == nil {
			t.Fatalf("fill of page %d: page=%v err=%v", page, p, err)
		}
		if p == held {
			t.Fatalf("fill of page %d took the pinned frame", page)
		}
		p.Release()
	}
	if st := c.Stats(); st.Evictions < 63 {
		t.Fatalf("evictions = %d, want the churn to evict", st.Evictions)
	}
	for i, w := range held.Words() {
		if w != pattern(0, 0, i) {
			t.Fatalf("pinned page word %d = %x, want %x", i, w, pattern(0, 0, i))
		}
	}
	held.Release()
	// Unpinned, the page is an eviction candidate like any other.
	for page := uint64(2000); page < 2000+3*16; page += 16 {
		mustLoad(t, c, page).Release()
	}
	if p := c.Get(0); p != nil {
		p.Release()
		t.Fatal("released page 0 survived a full shard of new fills")
	}
}

func TestEveryPagePinnedDeclinesFill(t *testing.T) {
	c := New(16, 8) // 1 frame per shard
	held := mustLoad(t, c, 0)
	defer held.Release()
	p, hit, err := c.GetOrLoad(16, loader(16, 8))
	if err != nil || hit || p != nil {
		t.Fatalf("fill into a shard whose only page is pinned: page=%v hit=%v err=%v", p, hit, err)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoEvictFillsOnlyFreeFrames(t *testing.T) {
	c := New(16, 8) // 1 frame per shard
	loads := 0
	load := func(dst []uint64) ([]uint64, error) { loads++; return loader(0, 8)(dst) }
	p, hit, err := c.GetOrLoadNoEvict(0, load)
	if err != nil || hit || p == nil {
		t.Fatalf("no-evict fill of a free frame: page=%v hit=%v err=%v", p, hit, err)
	}
	p.Release()
	// Page 16 shares page 0's shard, whose one frame is now taken.
	if p, _, err := c.GetOrLoadNoEvict(16, load); p != nil || err != nil {
		t.Fatalf("no-evict fill into a full shard: page=%v err=%v", p, err)
	}
	if p := c.Get(0); p == nil {
		t.Fatal("no-evict miss dropped the resident page")
	} else {
		p.Release()
	}
	st := c.Stats()
	if loads != 1 || st.Evictions != 0 || st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("loads = %d, stats = %+v", loads, st)
	}
}

func TestFillReusesEvictedFrame(t *testing.T) {
	const pageWords = 1 << 10
	c := New(16, pageWords) // 1 frame per shard
	var page uint64
	load := func(dst []uint64) ([]uint64, error) {
		if dst == nil {
			dst = make([]uint64, pageWords)
		}
		dst[0] = page
		return dst, nil
	}
	miss := func() {
		page += 16 // stay in shard 0: every call evicts the last
		p, hit, err := c.GetOrLoad(page, load)
		if err != nil || hit || p == nil || p.Words()[0] != page {
			t.Fatalf("evicting miss on page %d: page=%v hit=%v err=%v", page, p, hit, err)
		}
		p.Release()
	}
	miss() // the frame's first fill allocates its words
	if allocs := testing.AllocsPerRun(100, miss); allocs > 1 {
		t.Fatalf("an evicting miss allocates %.1f times, want ≤ 1", allocs)
	}
	if st := c.Stats(); st.Evictions < 100 {
		t.Fatalf("evictions = %d, want every miss to evict", st.Evictions)
	}
}

func TestInvalidateBelow(t *testing.T) {
	c := New(64, 8)
	for p := uint64(0); p < 10; p++ {
		mustLoad(t, c, p).Release()
	}
	held := c.Get(3)
	c.InvalidateBelow(6)
	for p := uint64(0); p < 6; p++ {
		if c.Get(p) != nil {
			t.Fatalf("page %d survived invalidation", p)
		}
	}
	for p := uint64(6); p < 10; p++ {
		q := c.Get(p)
		if q == nil {
			t.Fatalf("page %d above the floor was dropped", p)
		}
		q.Release()
	}
	// A page dropped while held keeps its words for its holder.
	if w := held.Words()[2]; w != pattern(3, 0, 2) {
		t.Fatalf("held page lost its words: %x", w)
	}
	held.Release()
	// Pages below the floor are never re-admitted, even via GetOrLoad: the
	// caller is told to read them itself.
	if p, hit, err := c.GetOrLoad(2, loader(2, 8)); err != nil || hit || p != nil {
		t.Fatalf("below-floor GetOrLoad: page=%v hit=%v err=%v", p, hit, err)
	}
	if c.Get(2) != nil {
		t.Fatal("below-floor page was re-admitted")
	}
	// The floor is monotonic: lowering it is a no-op.
	c.InvalidateBelow(1)
	if c.Get(5) != nil {
		t.Fatal("monotonic floor violated")
	}
	if st := c.Stats(); st.Invalidated < 6 {
		t.Fatalf("invalidated = %d, want >= 6", st.Invalidated)
	}
}

func TestConcurrentFillInvalidate(t *testing.T) {
	c := New(64, 8)
	stop := make(chan struct{})
	var inv sync.WaitGroup
	inv.Add(1)
	go func() {
		defer inv.Done()
		for f := uint64(0); ; f++ {
			select {
			case <-stop:
				return
			default:
				c.InvalidateBelow(f % 128)
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(seed uint64) {
			defer workers.Done()
			for i := uint64(0); i < 2000; i++ {
				p := (seed*2000 + i) % 128
				// A pinned page holds its own words however the other
				// workers and the truncation churn the frames.
				pg, _, err := c.GetOrLoad(p, loader(p, 8))
				if err != nil {
					t.Error(err)
					return
				}
				if pg != nil {
					for j, w := range pg.Words() {
						if w != pattern(p, 0, j) {
							t.Errorf("page %d word %d = %x", p, j, w)
						}
					}
				}
				pg.Release()
				c.Get(p).Release()
			}
		}(uint64(w))
	}
	workers.Wait()
	close(stop)
	inv.Wait()
	// Raise the floor past everything and verify the admission race cannot
	// leave truncated pages behind.
	c.InvalidateBelow(128)
	for p := uint64(0); p < 128; p++ {
		if c.Get(p) != nil {
			t.Fatalf("page %d cached after final invalidation", p)
		}
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("cache holds %d pages after full invalidation", got)
	}
}
