// Package pagecache implements a read-through cache of on-device hybrid-log
// pages for FishStore's read path (ROADMAP item 4, "Read path at scale").
//
// Pages below the log's head address are immutable — once a frame is evicted
// from the circular buffer its bytes on the device never change — so a cached
// copy needs no coherence protocol with ingestion: a reader that obtained a
// page slice keeps a valid snapshot forever, and the only invalidation event
// is logical truncation, which monotonically raises a floor below which
// cached pages are dropped (and never re-admitted).
//
// The cache stores pages as []uint64 word slices, the same shape the log's
// in-memory frames use, so scans and chain readers can alias record.View
// directly onto a cached page with zero copies or conversions.
//
// Concurrency: the table is sharded by page number; lookups take one shard
// RLock. Fills are deduplicated per page (singleflight), so N scan workers
// missing on the same cold page issue exactly one device read. Eviction is
// CLOCK (second chance): hits set a reference bit with an atomic store, so
// repeated hits never take a write lock.
package pagecache

import (
	"sync"
	"sync/atomic"
)

const shardCount = 16

// Stats is a point-in-time snapshot of cache activity counters.
type Stats struct {
	// Hits / Misses count lookups served from / absent from the cache.
	Hits, Misses int64
	// Fills counts device loads completed through GetOrLoad (deduplicated:
	// concurrent misses on one page count one fill).
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

type entry struct {
	words []uint64
	ref   atomic.Bool // CLOCK reference bit, set on hit
}

type shard struct {
	mu    sync.RWMutex
	pages map[uint64]*entry
	// clock is the eviction ring for this shard: page numbers in admission
	// order; the hand sweeps it granting second chances to referenced pages.
	clock []uint64
	hand  int
}

type fill struct {
	wg    sync.WaitGroup
	words []uint64
	err   error
}

// Cache is a bounded read-through cache of immutable log pages. Safe for
// concurrent use. The zero value is not usable; construct with New.
type Cache struct {
	shards   [shardCount]shard
	fillMu   sync.Mutex
	inflight map[uint64]*fill

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
// capacityPages is rounded up so every shard holds at least one page.
func New(capacityPages, pageWords int) *Cache {
	if capacityPages < shardCount {
		capacityPages = shardCount
	}
	c := &Cache{
		capPerShard: (capacityPages + shardCount - 1) / shardCount,
		pageWords:   pageWords,
		inflight:    make(map[uint64]*fill),
	}
	for i := range c.shards {
		c.shards[i].pages = make(map[uint64]*entry)
	}
	return c
}

func (c *Cache) shardFor(page uint64) *shard { return &c.shards[page%shardCount] }

// Get returns the cached words of page, or nil on a miss. The returned slice
// is an immutable snapshot shared with other readers; callers must not
// modify it.
//
//fishlint:hotpath per-page read-path probe
func (c *Cache) Get(page uint64) []uint64 {
	w := c.lookup(page)
	if w == nil {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return w
}

// lookup is Get without the hit and miss counters.
func (c *Cache) lookup(page uint64) []uint64 {
	s := c.shardFor(page)
	s.mu.RLock()
	e := s.pages[page]
	s.mu.RUnlock()
	if e == nil {
		return nil
	}
	e.ref.Store(true)
	return e.words
}

// GetOrLoad returns page's words, loading them with load on a miss. The
// second result reports whether the page was served from the cache.
// Concurrent callers missing on the same page share one load. A page below
// the invalidation floor is never admitted (load still runs and its result
// is returned — the caller's read of immutable device bytes is valid, it
// just isn't retained).
//
//fishlint:hotpath per-page read-path fill
func (c *Cache) GetOrLoad(page uint64, load func() ([]uint64, error)) ([]uint64, bool, error) {
	if w := c.Get(page); w != nil {
		return w, true, nil
	}
	c.fillMu.Lock()
	if f, ok := c.inflight[page]; ok {
		c.fillMu.Unlock()
		f.wg.Wait()
		if f.err == nil {
			// Joining an in-flight fill is a hit in spirit: no device read
			// was issued for this caller. Count it so hit ratios reflect
			// I/O saved, which is what the cache exists to do.
			c.hits.Add(1)
			return f.words, true, nil
		}
		return nil, false, f.err
	}
	// A fill may have finished since the probe above: fills admit before
	// they leave inflight, so its page is visible here.
	if w := c.lookup(page); w != nil {
		c.fillMu.Unlock()
		c.hits.Add(1)
		return w, true, nil
	}
	f := &fill{}
	f.wg.Add(1)
	c.inflight[page] = f
	c.fillMu.Unlock()

	f.words, f.err = load()
	if f.err == nil {
		c.fills.Add(1)
		c.admit(page, f.words)
	}
	c.fillMu.Lock()
	delete(c.inflight, page)
	c.fillMu.Unlock()
	f.wg.Done()
	return f.words, false, f.err
}

// admit inserts page unless it sits below the invalidation floor, evicting
// via CLOCK when the shard is full.
func (c *Cache) admit(page uint64, words []uint64) {
	if page < c.floor.Load() {
		return
	}
	s := c.shardFor(page)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pages[page]; ok {
		return
	}
	// Re-check the floor under the shard lock: InvalidateBelow holds every
	// shard lock while sweeping, so an admission serialized after it must
	// observe the raised floor.
	if page < c.floor.Load() {
		return
	}
	for len(s.pages) >= c.capPerShard {
		c.evictOneLocked(s)
	}
	s.pages[page] = &entry{words: words}
	s.clock = append(s.clock, page)
	c.pages.Add(1)
}

// evictOneLocked advances the CLOCK hand until a page with a clear reference
// bit is found and drops it. Caller holds s.mu.
func (c *Cache) evictOneLocked(s *shard) {
	for sweep := 0; len(s.clock) > 0; sweep++ {
		if s.hand >= len(s.clock) {
			s.hand = 0
		}
		page := s.clock[s.hand]
		e := s.pages[page]
		if e == nil {
			// Stale clock slot (page already invalidated); compact it away.
			s.clock = append(s.clock[:s.hand], s.clock[s.hand+1:]...)
			continue
		}
		if e.ref.CompareAndSwap(true, false) && sweep < 2*len(s.clock) {
			s.hand++
			continue
		}
		delete(s.pages, page)
		s.clock = append(s.clock[:s.hand], s.clock[s.hand+1:]...)
		c.pages.Add(-1)
		c.evictions.Add(1)
		return
	}
}

// InvalidateBelow drops every cached page with number < floorPage and
// prevents their re-admission. Readers holding slices of dropped pages keep
// valid (immutable) snapshots; truncation in FishStore is logical, so the
// bytes they alias are never rewritten.
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
		for page := range s.pages {
			if page < floorPage {
				delete(s.pages, page)
				c.pages.Add(-1)
				c.invalidated.Add(1)
			}
		}
		// Compact the clock ring to the surviving pages.
		live := s.clock[:0]
		for _, p := range s.clock {
			if _, ok := s.pages[p]; ok {
				live = append(live, p)
			}
		}
		s.clock = live
		if s.hand > len(s.clock) {
			s.hand = 0
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
