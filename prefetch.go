package fishstore

import (
	"context"
	"sync"
	"time"

	"fishstore/internal/hlog"
	"fishstore/internal/pagecache"
	"fishstore/internal/record"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
	"fishstore/internal/wordio"
)

// chainReader reads hash-chain records from the storage device with
// adaptive prefetching (§7.2, Fig 9).
//
// Chains run from high to low addresses, so when the reader observes
// locality — the gap between consecutive chain records is below the
// threshold τ — it speculatively reads a *backward* window ending at the
// current position, hoping it covers the next several chain records. The
// threshold comes from the paper's cost model:
//
//	Φ = (cost_syscall + latency_rand) × throughput_seq
//	τ = Φ + avg_record_size
//
// i.e., Φ is the number of sequential bytes whose transfer time equals the
// fixed cost of one random I/O; reading up to that many extra bytes to save
// one random I/O is a win. Speculation levels grow exponentially from the
// average record size up to a full device queue, and collapse back to
// nothing when locality disappears.
//
// The profile's Φ is trusted only as long as the device behaves like the
// profile claims. The reader times its own device reads and keeps an EWMA of
// the observed fixed cost per I/O; when that drops below the profile's
// random-latency floor (a RAM-backed device, a simulator whose virtual clock
// doesn't sleep, a page already in the OS cache), τ and the speculation cap
// are recomputed from the observed cost. Without this clamp a fast device
// with a pessimistic profile turns the prefetcher into a pessimization:
// multi-megabyte windows that cost far more than the cheap random reads they
// replace.
//
// When a page cache is attached, a cold hop reads through it only if that
// costs no other page its residence: the hop's page is cached (no I/O at
// all), or its cache shard has a free frame, which one page read fills for
// every later hop and scan. Otherwise the hop reads the byte window above
// and evicts nothing. A point read does not earn a whole page; the page
// walker's sequential fills do.
type chainReader struct {
	log     *hlog.Log
	ctx     context.Context // nil = never cancelled; polled before each device read
	useAP   bool
	cache   *pagecache.Cache // nil = raw device reads (baseline, verifier, profiler)
	tau     uint64
	minWin  int
	maxWin  int
	window  int // current speculation window (0 = no speculation)
	profile storage.Profile

	buf      []uint64 // speculation buffer: the device words [bufStart, bufEnd)
	bufStart uint64
	bufEnd   uint64

	// page is the cached page the last hop resolved through, pinned until
	// the reader moves to another page or is released.
	page    *pagecache.Page
	pageNum uint64

	lastBase  uint64 // base address of the previous (higher) chain record
	avgRec    float64
	recsSeen  int64
	ios       int64
	bytesRead int64
	hits      int64 // hops resolved without a device read (buffer or cache)
	cacheHits int64 // subset of hits served by the shared page cache

	// Observed fixed cost per device I/O (seconds, EWMA): elapsed wall time
	// minus the transfer time the profile predicts for the bytes moved.
	obsFixed   float64
	obsSamples int64

	met *storeMetrics
	sp  *trace.Span // scan span; each device read becomes a scan.io child
}

const (
	// obsMinSamples is how many device reads the reader times before it
	// trusts the observed latency over the profile.
	obsMinSamples = 4
	// obsAlpha is the EWMA weight of the newest latency sample.
	obsAlpha = 0.25
)

// costModel returns the Φ threshold and the storage profile behind it: the
// number of sequential bytes whose transfer time equals one random I/O's
// fixed cost, computed from the device's profile (or the default SSD profile
// when the device doesn't report one). Shared by the adaptive prefetcher,
// the cost-model gauges, and the per-scan decision log.
func costModel(log *hlog.Log) (phi uint64, profile storage.Profile) {
	profile = storage.DefaultSSDProfile()
	if p, ok := storage.Unwrap(log.Device()).(storage.Profiler); ok {
		profile = p.Profile()
	}
	phi = uint64((profile.SyscallCost.Seconds() + profile.RandLatency.Seconds()) * profile.SeqBandwidth)
	return phi, profile
}

func newChainReader(ctx context.Context, log *hlog.Log, useAP bool, cache *pagecache.Cache, met *storeMetrics, sp *trace.Span) *chainReader {
	phi, profile := costModel(log)
	//lint:ignore hotalloc one reader per chain walk that leaves memory, not per hop
	cr := &chainReader{
		log:     log,
		ctx:     ctx,
		useAP:   useAP,
		cache:   cache,
		minWin:  4096,
		maxWin:  profile.QueueBytes,
		profile: profile,
		avgRec:  1024,
		met:     met,
		sp:      sp,
	}
	cr.tau = phi
	if cr.maxWin < cr.minWin {
		cr.maxWin = cr.minWin
	}
	return cr
}

// specBufPool recycles speculation buffers across scans. Windows can grow to
// a full device queue (maxWin); without pooling every cold scan re-allocates
// that much and drops it on the floor when the chainReader dies.
var specBufPool sync.Pool // stores *[]uint64

// ensureBuf makes cr.buf at least n words, drawing from the pool before
// allocating. Capacity is rounded up to a whole number of minWin units so
// recycled buffers fit later windows.
func (cr *chainReader) ensureBuf(n int) {
	if cap(cr.buf) >= n {
		cr.buf = cr.buf[:n]
		return
	}
	if cr.buf != nil {
		b := cr.buf[:0]
		specBufPool.Put(&b)
		cr.buf = nil
	}
	if p, ok := specBufPool.Get().(*[]uint64); ok && cap(*p) >= n {
		cr.buf = (*p)[:n]
		return
	}
	unit := cr.minWin / 8
	//lint:ignore hotalloc pool misses only: buffers recycle through specBufPool
	cr.buf = make([]uint64, n, (n+unit-1)/unit*unit)
}

// release unpins the current page and returns the speculation buffer to the
// pool. The chainReader must not be used afterwards; owners call it once the
// chain walk finishes.
func (cr *chainReader) release() {
	if cr == nil {
		return
	}
	cr.page.Release()
	cr.page = nil
	if cr.buf == nil {
		return
	}
	b := cr.buf[:0]
	specBufPool.Put(&b)
	cr.buf = nil
	cr.bufStart, cr.bufEnd = 0, 0
}

// observe folds one timed device read into the fixed-cost estimate. The
// profile's sequential bandwidth converts bytes moved into expected transfer
// time; whatever elapsed beyond that is the I/O's fixed cost (seek + syscall).
func (cr *chainReader) observe(elapsed time.Duration, size int) {
	fixed := elapsed.Seconds() - float64(size)/cr.profile.SeqBandwidth
	if fixed < 0 {
		fixed = 0
	}
	if cr.obsSamples == 0 {
		cr.obsFixed = fixed
	} else {
		cr.obsFixed += (fixed - cr.obsFixed) * obsAlpha
	}
	cr.obsSamples++
}

// effTau returns the locality threshold Φ in effect: the profile's Φ, or one
// recomputed from observed latency when the device demonstrably answers
// random reads faster than the profile's random-latency floor.
func (cr *chainReader) effTau() uint64 {
	if cr.obsSamples >= obsMinSamples && cr.obsFixed < cr.profile.RandLatency.Seconds() {
		return uint64(cr.obsFixed * cr.profile.SeqBandwidth)
	}
	return cr.tau
}

// effMaxWin bounds the speculation window to what the effective Φ justifies:
// a handful of random-I/O-equivalents, never more than the device queue.
func (cr *chainReader) effMaxWin() int {
	tau := cr.effTau()
	if tau == cr.tau {
		return cr.maxWin
	}
	w := int(4 * tau)
	if w < cr.minWin {
		w = cr.minWin
	}
	if w > cr.maxWin {
		w = cr.maxWin
	}
	return w
}

// record reads the record containing the key pointer at kptAddr, a word
// address, and returns its view and base address; ok is false when the link
// is corrupt (record.Resolve). The view aliases a pinned cache page or the
// speculation buffer, so it is valid until the next hop. One call is one
// chain hop: the hop is a hit when the reader issued no device read for it,
// a miss otherwise.
func (cr *chainReader) record(kptAddr uint64) (record.View, uint64, bool, error) {
	ios := cr.ios
	var v record.View
	var base uint64
	var ok bool
	var err error
	cached := false
	if cr.cache != nil && !cr.buffered(kptAddr) {
		var pw []uint64
		if pw, err = cr.pageWords(cr.log.PageOf(kptAddr)); err != nil {
			return record.View{}, 0, false, err
		}
		if pw != nil {
			// Records never straddle pages, so the key pointer, header and
			// payload all live in the cached page, and the view aliases it.
			cached = true
			k := cr.log.OffsetOf(kptAddr) / 8
			var b int
			v, b, ok = record.Resolve(pw, int(k))
			base = kptAddr - (k-uint64(b))*8
		}
	}
	if !cached {
		// Byte-granular device reads through the speculation buffer: the key
		// pointer, then the header, then the record.
		v, base, ok, err = record.ResolveRead(cr.fetch, kptAddr, int(cr.log.PageSize()/8))
	}
	if err != nil || !ok {
		return record.View{}, 0, false, err
	}
	cr.adapt(base, len(v.Words)*8)
	hit := cr.ios == ios
	if hit {
		cr.hits++
		if cached {
			cr.cacheHits++
		}
	}
	if m := cr.met; m != nil {
		if hit {
			m.prefetchHits.Inc()
		} else {
			m.prefetchMisses.Inc()
		}
	}
	return v, base, true, nil
}

// buffered reports whether the key pointer at kptAddr lies in the
// speculation buffer, so the hop needs no cache probe: its record almost
// always lies there too.
func (cr *chainReader) buffered(kptAddr uint64) bool {
	return kptAddr >= cr.bufStart && kptAddr+16 <= cr.bufEnd
}

// pageWords returns the words of an on-device page through the cache, or nil
// when the page is neither cached nor fillable without evicting another
// page; the hop then reads the speculation window instead. A fill is one
// timed page read into a recycled frame, shared with concurrent readers
// missing on the same page. The page stays pinned while hops stay on it.
func (cr *chainReader) pageWords(page uint64) ([]uint64, error) {
	if cr.page != nil && cr.pageNum == page {
		return cr.page.Words(), nil
	}
	// Poll here, not in the loader: a fill is shared with the scans that
	// join it, and this scan's cancellation must not fail theirs.
	if err := ctxErr(cr.ctx); err != nil {
		return nil, err
	}
	cr.page.Release()
	cr.page = nil
	//lint:ignore hotalloc once per page the walk moves to, not per hop
	p, _, err := cr.cache.GetOrLoadNoEvict(page, func(dst []uint64) ([]uint64, error) {
		return cr.timedReadPage(page, dst)
	})
	if err != nil || p == nil {
		return nil, err
	}
	cr.page, cr.pageNum = p, page
	return p.Words(), nil
}

// timedReadPage is readPage as one of the reader's timed device reads.
func (cr *chainReader) timedReadPage(page uint64, dst []uint64) ([]uint64, error) {
	pageSize := int(cr.log.PageSize())
	var iosp *trace.Span
	if cr.sp != nil {
		iosp = cr.sp.Child("scan.io")
		iosp.SetUint("addr", page*uint64(pageSize))
		iosp.SetInt("bytes", int64(pageSize))
		iosp.SetInt("window", int64(cr.window))
	}
	start := time.Now()
	words, err := readPage(cr.log, page, dst)
	iosp.End()
	if err != nil {
		return nil, err
	}
	cr.observe(time.Since(start), pageSize)
	cr.ios++
	cr.bytesRead += int64(pageSize)
	return words, nil
}

// adapt updates the locality estimate after reading the record at base.
func (cr *chainReader) adapt(base uint64, size int) {
	cr.recsSeen++
	cr.avgRec += (float64(size) - cr.avgRec) / float64(cr.recsSeen)
	if cr.lastBase != 0 && cr.useAP {
		// Gap between this record's end and the previous chain record.
		end := base + uint64(size)
		var gap uint64
		if cr.lastBase > end {
			gap = cr.lastBase - end
		}
		// τ includes the average record length: the record's own bytes are
		// not wasted bandwidth.
		threshold := cr.effTau() + uint64(cr.avgRec)
		prev := cr.window
		if gap <= threshold {
			// Locality: speculate (more).
			switch {
			case cr.window == 0:
				cr.window = cr.minWin
				if int(cr.avgRec*4) > cr.window {
					cr.window = int(cr.avgRec * 4)
				}
			default:
				cr.window *= 4
			}
			if max := cr.effMaxWin(); cr.window > max {
				cr.window = max
			}
		} else {
			cr.window = 0 // fall back to exact random I/Os
		}
		if m := cr.met; m != nil && cr.window != prev {
			m.prefetchWindow.Set(int64(cr.window))
			if cr.window > prev {
				m.prefetchGrows.Inc()
				m.event("prefetch.grow", trace.Int("window", int64(cr.window)), trace.Uint("gap", gap))
			} else {
				m.prefetchCollapse.Inc()
				m.event("prefetch.collapse", trace.Uint("gap", gap))
			}
		}
	}
	cr.lastBase = base
}

// fetch returns the n words at the word-aligned address addr, serving from
// the speculation buffer when possible. The result aliases the buffer and is
// valid until the next fetch.
//
//fishlint:hotpath per-hop device read, called through record.ResolveRead
func (cr *chainReader) fetch(addr uint64, n int) ([]uint64, error) {
	start, end := addr, addr+uint64(n)*8
	if start >= cr.bufStart && end <= cr.bufEnd {
		off := (start - cr.bufStart) / 8
		return cr.buf[off : off+uint64(n)], nil
	}
	if win := cr.window; cr.useAP && win > int(end-start) {
		if max := cr.effMaxWin(); win > max {
			win = max // observed latency dropped below the profile floor
		}
		// Backward speculative window ending at our read's end, starting
		// on a word so the buffer holds whole words.
		w := uint64(win)
		if end > w {
			start = (end - w) &^ 7
		} else {
			start = 0
		}
		if start < hlog.BeginAddress && end > hlog.BeginAddress {
			start = 0 // reading the reserved prefix is harmless
		}
	}
	if err := ctxErr(cr.ctx); err != nil {
		return nil, err
	}
	size := int(end - start)
	cr.ensureBuf(size / 8)
	var iosp *trace.Span
	if cr.sp != nil {
		iosp = cr.sp.Child("scan.io")
		iosp.SetUint("addr", start)
		iosp.SetInt("bytes", int64(size))
		iosp.SetInt("window", int64(cr.window))
	}
	t0 := time.Now()
	err := cr.log.ReadBytesFromDevice(start, wordio.Bytes(cr.buf))
	iosp.End()
	if err != nil {
		return nil, err
	}
	cr.observe(time.Since(t0), size)
	cr.ios++
	cr.bytesRead += int64(size)
	cr.bufStart, cr.bufEnd = start, end
	off := (addr - start) / 8
	return cr.buf[off : off+uint64(n)], nil
}
