// Package pagecache implements a read-through cache of on-device hybrid-log
// pages for FishStore's read path.
//
// Pages below the log's head address are immutable — once a frame is evicted
// from the circular buffer its bytes on the device never change — so a cached
// copy needs no coherence protocol with ingestion. The only invalidation
// event is logical truncation, which monotonically raises a floor below which
// cached pages are dropped (and never re-admitted).
//
// The cache owns a fixed set of frames, one page of []uint64 words each — the
// shape the log's in-memory frames use, so scans and chain readers alias
// record.View directly onto a cached page. Get and GetOrLoad return a pinned
// *Page whose words stay valid until the holder calls Release. Eviction skips
// pinned pages and hands the evicted frame's words to the next fill, so a
// fill in steady state is one device read into a recycled frame and no
// allocation. A page that truncation drops while pinned keeps its words for
// its holders; its frame is reused only after the last Release.
//
// Concurrency: the table is sharded by page number; lookups take one shard
// RLock. Fills are deduplicated per page (singleflight), so N scan workers
// missing on the same cold page issue exactly one device read, and a reader
// that joins another's fill receives its pin when the page is admitted.
// Eviction is CLOCK (second chance): hits set a reference bit with an atomic
// store, so repeated hits never take a write lock.
package pagecache

import (
	"sync"
	"sync/atomic"
)

const shardCount = 16

// Stats is a point-in-time snapshot of cache activity counters.
type Stats struct {
	// Hits / Misses count lookups served from / absent from the cache. A
	// GetOrLoad counts exactly one of the two; one that joins another
	// reader's fill counts a hit, since it issued no device read.
	Hits, Misses int64
	// Fills counts device loads completed through GetOrLoad or
	// GetOrLoadNoEvict (deduplicated: concurrent misses on one page count
	// one fill).
	Fills int64
	// Evictions counts pages dropped by the CLOCK sweep to make room.
	Evictions int64
	// Invalidated counts pages dropped by InvalidateBelow (truncation).
	Invalidated int64
	// Pages / Bytes describe the current cache footprint.
	Pages, Bytes int64
	// CapacityPages is the configured bound.
	CapacityPages int64
}

// frameState says what a frame holds. Guarded by its shard's lock.
type frameState uint8

const (
	// frameFree holds no page; the next fill may take the frame once its
	// pins (from a page dropped while held) are released.
	frameFree frameState = iota
	// frameFilling is owned by the fill in flight.
	frameFilling
	// frameCached holds an admitted page.
	frameCached
)

// Page is one cache frame holding a log page. A *Page returned by Get or
// GetOrLoad is pinned: its words stay valid, and the frame is not reused,
// until the holder calls Release.
type Page struct {
	words []uint64
	num   uint64
	state frameState
	pins  atomic.Int32
	ref   atomic.Bool // CLOCK reference bit, set on hit

	// The fill in flight: waiters and err are guarded by Cache.fillMu; done
	// is waited on without it.
	done    sync.WaitGroup
	waiters int
	err     error
}

// Words returns the page's words. They are shared with other readers and
// must not be modified.
func (p *Page) Words() []uint64 { return p.words }

// Release drops the caller's pin. The page's words must not be used after.
// Release of a nil *Page is a no-op.
func (p *Page) Release() {
	if p != nil {
		p.pins.Add(-1)
	}
}

// A Loader reads a page from the device into dst and returns the words it
// filled. dst is a recycled frame of the page's length, or nil for a frame
// that has never held a page; the loader then allocates the page.
type Loader func(dst []uint64) ([]uint64, error)

type shard struct {
	mu    sync.RWMutex
	pages map[uint64]*Page
	// ring holds the shard's frames for the cache's life; the CLOCK hand
	// sweeps it granting second chances to referenced pages.
	ring []*Page
	hand int
	// spare counts the frames in the frameFree state.
	spare int
}

// Cache is a bounded read-through cache of immutable log pages. Safe for
// concurrent use. The zero value is not usable; construct with New.
type Cache struct {
	shards   [shardCount]shard
	fillMu   sync.Mutex
	inflight map[uint64]*Page

	capPerShard int
	pageWords   int

	// floor is the lowest admissible page: truncation raises it and pages
	// below are dropped and never re-admitted, so a fill racing a truncation
	// cannot resurrect reclaimed log space.
	floor atomic.Uint64

	hits        atomic.Int64
	misses      atomic.Int64
	fills       atomic.Int64
	evictions   atomic.Int64
	invalidated atomic.Int64
	pages       atomic.Int64
}

// New builds a cache bounded to capacityPages pages of pageWords words each.
// capacityPages is rounded up so every shard holds at least one page. A
// frame's words are allocated by its first fill.
func New(capacityPages, pageWords int) *Cache {
	if capacityPages < shardCount {
		capacityPages = shardCount
	}
	c := &Cache{
		capPerShard: (capacityPages + shardCount - 1) / shardCount,
		pageWords:   pageWords,
		inflight:    make(map[uint64]*Page),
	}
	frames := make([]Page, c.capPerShard*shardCount)
	for i := range c.shards {
		s := &c.shards[i]
		s.pages = make(map[uint64]*Page, c.capPerShard)
		s.ring = make([]*Page, c.capPerShard)
		for j := range s.ring {
			s.ring[j] = &frames[i*c.capPerShard+j]
		}
		s.spare = c.capPerShard
	}
	return c
}

func (c *Cache) shardFor(page uint64) *shard { return &c.shards[page%shardCount] }

// Get returns page pinned, or nil on a miss.
//
//fishlint:hotpath per-page read-path probe
func (c *Cache) Get(page uint64) *Page {
	p := c.lookup(page)
	if p == nil {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return p
}

// lookup is Get without the hit and miss counters.
func (c *Cache) lookup(page uint64) *Page {
	s := c.shardFor(page)
	s.mu.RLock()
	p := s.pages[page]
	if p != nil {
		// Pins are taken under the shard lock, so an evictor holding it
		// exclusively sees every holder.
		p.pins.Add(1)
		p.ref.Store(true)
	}
	s.mu.RUnlock()
	return p
}

// GetOrLoad returns page pinned, filling it with load on a miss. The second
// result reports whether the page was served from the cache. Concurrent
// callers missing on the same page share one load. The fill takes a free
// frame or evicts the least recently referenced unpinned page of the shard.
// It returns a nil *Page and no error when the page cannot be cached: it
// lies below the invalidation floor, or every page of its shard is pinned.
// The caller then reads the device itself.
func (c *Cache) GetOrLoad(page uint64, load Loader) (*Page, bool, error) {
	return c.getOrLoad(page, true, load)
}

// GetOrLoadNoEvict is GetOrLoad for reads that do not earn a page's
// residence: a miss fills only a free frame, and when the shard has none it
// returns a nil *Page without reading.
func (c *Cache) GetOrLoadNoEvict(page uint64, load Loader) (*Page, bool, error) {
	return c.getOrLoad(page, false, load)
}

//fishlint:hotpath per-page read-path fill
func (c *Cache) getOrLoad(page uint64, evict bool, load Loader) (*Page, bool, error) {
	if p := c.lookup(page); p != nil {
		c.hits.Add(1)
		return p, true, nil
	}
	c.fillMu.Lock()
	if p := c.inflight[page]; p != nil {
		p.waiters++
		c.fillMu.Unlock()
		return c.join(p)
	}
	// A fill may have finished since the probe above: fills admit before
	// they leave inflight, so its page is visible here.
	if p := c.lookup(page); p != nil {
		c.fillMu.Unlock()
		c.hits.Add(1)
		return p, true, nil
	}
	c.misses.Add(1)
	p := c.takeFrame(page, evict)
	if p == nil {
		c.fillMu.Unlock()
		return nil, false, nil
	}
	p.num, p.err = page, nil
	p.done.Add(1)
	c.inflight[page] = p
	c.fillMu.Unlock()

	words, err := load(p.words)

	c.fillMu.Lock()
	delete(c.inflight, page)
	// Every joiner gets its pin here, before the page is visible to an
	// evictor; on an error the joiners' pins keep the frame (and err) theirs
	// until each has read it.
	joiners := int32(p.waiters)
	p.waiters = 0
	p.err = err
	if err == nil {
		p.words = words
		p.pins.Add(1 + joiners)
		c.fills.Add(1)
		c.admit(p)
	} else {
		p.pins.Add(joiners)
		c.freeFrame(p)
	}
	c.fillMu.Unlock()
	p.done.Done()
	if err != nil {
		return nil, false, err
	}
	return p, false, nil
}

// join waits for the fill of p that the caller registered as a waiter on.
func (c *Cache) join(p *Page) (*Page, bool, error) {
	p.done.Wait()
	if err := p.err; err != nil {
		p.Release()
		return nil, false, err
	}
	// Joining an in-flight fill is a hit in spirit: no device read was
	// issued for this caller. Count it so hit ratios reflect I/O saved,
	// which is what the cache exists to do.
	c.hits.Add(1)
	return p, true, nil
}

// takeFrame claims a frame for a fill of page: a free one whose pins are
// gone, else, when evict is set, one the CLOCK sweep evicts. It returns nil
// when there is none, or when page lies below the floor and so would never
// be admitted. Caller holds fillMu.
func (c *Cache) takeFrame(page uint64, evict bool) *Page {
	if page < c.floor.Load() {
		return nil
	}
	s := c.shardFor(page)
	s.mu.Lock()
	defer s.mu.Unlock()
	var p *Page
	if s.spare > 0 {
		for _, f := range s.ring {
			// A free frame's pins only fall: it is in neither the table nor
			// inflight, so no reader can pin it anew.
			if f.state == frameFree && f.pins.Load() == 0 {
				p = f
				s.spare--
				break
			}
		}
	}
	if p == nil && evict {
		p = c.evictOneLocked(s)
	}
	if p != nil {
		p.state = frameFilling
	}
	return p
}

// freeFrame returns a frame that holds no admitted page to its shard.
func (c *Cache) freeFrame(p *Page) {
	s := c.shardFor(p.num)
	s.mu.Lock()
	p.state = frameFree
	s.spare++
	s.mu.Unlock()
}

// admit makes a filled page visible unless it sits below the invalidation
// floor, in which case its frame is freed (the fill's pins still hold it).
// Its frame was claimed by takeFrame, so the shard has room. Caller holds
// fillMu.
func (c *Cache) admit(p *Page) {
	s := c.shardFor(p.num)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check the floor under the shard lock: InvalidateBelow holds every
	// shard lock while sweeping, so an admission serialized after it must
	// observe the raised floor.
	if p.num < c.floor.Load() {
		p.state = frameFree
		s.spare++
		return
	}
	p.ref.Store(false)
	p.state = frameCached
	s.pages[p.num] = p
	c.pages.Add(1)
}

// evictOneLocked advances the CLOCK hand to a cached, unpinned page whose
// reference bit is clear, drops it from the table and returns its frame; it
// returns nil when every cached page of the shard is pinned. Two sweeps
// suffice: the first clears every reference bit it passes. Caller holds
// s.mu.
func (c *Cache) evictOneLocked(s *shard) *Page {
	for sweep := 0; sweep < 2*len(s.ring); sweep++ {
		p := s.ring[s.hand]
		s.hand = (s.hand + 1) % len(s.ring)
		if p.state != frameCached || p.pins.Load() != 0 {
			continue
		}
		if p.ref.Swap(false) {
			continue // second chance
		}
		delete(s.pages, p.num)
		c.pages.Add(-1)
		c.evictions.Add(1)
		return p
	}
	return nil
}

// InvalidateBelow drops every cached page with number < floorPage and
// prevents their re-admission. A dropped page that a reader holds keeps its
// words until released (truncation in FishStore is logical, so the bytes
// stay valid); only then is its frame reused.
func (c *Cache) InvalidateBelow(floorPage uint64) {
	for {
		cur := c.floor.Load()
		if floorPage <= cur {
			return // monotonic
		}
		if c.floor.CompareAndSwap(cur, floorPage) {
			break
		}
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for page, p := range s.pages {
			if page < floorPage {
				delete(s.pages, page)
				p.state = frameFree
				s.spare++
				c.pages.Add(-1)
				c.invalidated.Add(1)
			}
		}
		s.mu.Unlock()
	}
}

// Len returns the number of cached pages.
func (c *Cache) Len() int { return int(c.pages.Load()) }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	pages := c.pages.Load()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Fills:         c.fills.Load(),
		Evictions:     c.evictions.Load(),
		Invalidated:   c.invalidated.Load(),
		Pages:         pages,
		Bytes:         pages * int64(c.pageWords) * 8,
		CapacityPages: int64(c.capPerShard * shardCount),
	}
}
