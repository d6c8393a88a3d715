package fishstore

import (
	"context"
	"encoding/binary"
	"sync"
	"time"

	"fishstore/internal/hlog"
	"fishstore/internal/metrics"
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
// When a page cache is attached, device resolution happens at page
// granularity through it instead of via byte-window speculation: a chain hop
// either hits a cached page (no I/O at all) or fills one page whose records
// every later hop and scan can alias zero-copy.
type chainReader struct {
	log     *hlog.Log
	ctx     context.Context // nil = never cancelled; checked by device reads
	useAP   bool
	cache   *pagecache.Cache // nil = raw device reads (baseline, verifier, profiler)
	tau     uint64
	minWin  int
	maxWin  int
	window  int // current speculation window (0 = no speculation)
	profile storage.Profile

	buf      []byte
	bufStart uint64
	bufEnd   uint64

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
var specBufPool sync.Pool // stores *[]byte

// ensureBuf makes cr.buf at least size bytes, drawing from the pool before
// allocating. Capacity is rounded up to a whole number of minWin units so
// recycled buffers fit later windows.
func (cr *chainReader) ensureBuf(size int) {
	if cap(cr.buf) >= size {
		cr.buf = cr.buf[:size]
		return
	}
	if cr.buf != nil {
		b := cr.buf[:0]
		specBufPool.Put(&b)
		cr.buf = nil
	}
	if p, ok := specBufPool.Get().(*[]byte); ok && cap(*p) >= size {
		cr.buf = (*p)[:size]
		return
	}
	rounded := (size + cr.minWin - 1) / cr.minWin * cr.minWin
	cr.buf = make([]byte, size, rounded)
}

// release returns the speculation buffer to the pool. The chainReader must
// not be used afterwards; owners call it once the chain walk finishes.
func (cr *chainReader) release() {
	if cr == nil || cr.buf == nil {
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

// record reads the record containing the key pointer at kptAddr and returns
// its view and base address. One call is one chain hop: the hop is a hit when
// the reader issued no device read for it, a miss otherwise.
func (cr *chainReader) record(kptAddr uint64) (record.View, uint64, error) {
	ios := cr.ios
	var v record.View
	var base uint64
	var err error
	if cr.cache != nil {
		v, base, err = cr.recordViaCache(kptAddr)
	} else {
		v, base, err = cr.recordRaw(kptAddr)
	}
	if err != nil {
		return record.View{}, 0, err
	}
	hit := cr.ios == ios
	if hit {
		cr.hits++
		if cr.cache != nil {
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
	return v, base, nil
}

// recordRaw resolves the record with byte-granular device reads, through the
// speculation buffer: the key pointer, then the header, then the record.
func (cr *chainReader) recordRaw(kptAddr uint64) (record.View, uint64, error) {
	// 1. The key pointer's first word tells us where the record starts.
	kw, err := cr.fetch(kptAddr, 16)
	if err != nil {
		return record.View{}, 0, err
	}
	wordA := binary.LittleEndian.Uint64(kw)
	offWords := int(wordA >> 50)
	base := kptAddr - uint64(offWords)*8

	// 2. The header tells us the record size.
	hb, err := cr.fetch(base, 8)
	if err != nil {
		return record.View{}, 0, err
	}
	h := record.UnpackHeader(binary.LittleEndian.Uint64(hb))
	if h.SizeWords == 0 {
		return record.View{}, 0, errEmptyHeader(base)
	}

	// 3. Fetch the whole record.
	rb, err := cr.fetch(base, h.SizeWords*8)
	if err != nil {
		return record.View{}, 0, err
	}
	words := make([]uint64, h.SizeWords)
	wordio.BytesToWords(words, rb)

	cr.adapt(base, h.SizeWords*8)
	return record.View{Words: words}, base, nil
}

// recordViaCache resolves the record through the shared page cache: records
// never straddle pages, so the key pointer, header, and payload all live in
// one cached page and the returned view aliases it with zero copies.
func (cr *chainReader) recordViaCache(kptAddr uint64) (record.View, uint64, error) {
	pw, err := cr.pageWords(cr.log.PageOf(kptAddr))
	if err != nil {
		return record.View{}, 0, err
	}
	kOff := cr.log.OffsetOf(kptAddr) / 8
	wordA := pw[kOff]
	offWords := uint64(wordA >> 50)
	base := kptAddr - offWords*8
	if offWords > kOff {
		// Records never straddle pages; an offset pointing before the page
		// start means the chain word is garbage.
		return record.View{}, 0, errEmptyHeader(base)
	}
	bOff := kOff - offWords
	h := record.UnpackHeader(pw[bOff])
	if h.SizeWords == 0 {
		return record.View{}, 0, errEmptyHeader(base)
	}
	if bOff+uint64(h.SizeWords) > uint64(len(pw)) {
		return record.View{}, 0, errEmptyHeader(base)
	}
	view := record.View{Words: pw[bOff : bOff+uint64(h.SizeWords)]}
	cr.adapt(base, h.SizeWords*8)
	return view, base, nil
}

// pageWords returns the on-device page through the cache, filling it with a
// single timed page read on a miss. Concurrent chain walkers missing on the
// same page share one fill.
func (cr *chainReader) pageWords(page uint64) ([]uint64, error) {
	if w := cr.cache.Get(page); w != nil {
		return w, nil
	}
	pageSize := int(cr.log.PageSize())
	w, _, err := cr.cache.GetOrLoad(page, func() ([]uint64, error) {
		var iosp *trace.Span
		if cr.sp != nil {
			iosp = cr.sp.Child("scan.io")
			iosp.SetUint("addr", page*uint64(pageSize))
			iosp.SetInt("bytes", int64(pageSize))
			iosp.SetInt("window", int64(cr.window))
		}
		start := time.Now()
		words, err := cr.log.ReadWordsFromDeviceCtx(cr.ctx, page*uint64(pageSize), pageSize/8)
		iosp.End()
		if err != nil {
			return nil, err
		}
		cr.observe(time.Since(start), pageSize)
		cr.ios++
		cr.bytesRead += int64(pageSize)
		return words, nil
	})
	return w, err
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
				m.reg.Trace("prefetch.grow",
					metrics.FInt("window", int64(cr.window)), metrics.FUint("gap", gap))
			} else {
				m.prefetchCollapse.Inc()
				m.reg.Trace("prefetch.collapse", metrics.FUint("gap", gap))
			}
		}
	}
	cr.lastBase = base
}

// fetch returns n bytes at addr, serving from the speculation buffer when
// possible.
func (cr *chainReader) fetch(addr uint64, n int) ([]byte, error) {
	if addr >= cr.bufStart && addr+uint64(n) <= cr.bufEnd {
		off := addr - cr.bufStart
		return cr.buf[off : off+uint64(n)], nil
	}
	start, end := addr, addr+uint64(n)
	if win := cr.window; cr.useAP && win > int(end-start) {
		if max := cr.effMaxWin(); win > max {
			win = max // observed latency dropped below the profile floor
		}
		// Backward speculative window ending at our read's end.
		w := uint64(win)
		if end > w {
			start = end - w
		} else {
			start = 0
		}
		if start < hlog.BeginAddress && end > hlog.BeginAddress {
			start = 0 // reading the reserved prefix is harmless
		}
	}
	size := int(end - start)
	cr.ensureBuf(size)
	var iosp *trace.Span
	if cr.sp != nil {
		iosp = cr.sp.Child("scan.io")
		iosp.SetUint("addr", start)
		iosp.SetInt("bytes", int64(size))
		iosp.SetInt("window", int64(cr.window))
	}
	t0 := time.Now()
	err := cr.log.ReadBytesFromDeviceCtx(cr.ctx, start, cr.buf)
	iosp.End()
	if err != nil {
		return nil, err
	}
	cr.observe(time.Since(t0), size)
	cr.ios++
	cr.bytesRead += int64(size)
	cr.bufStart, cr.bufEnd = start, end
	off := addr - start
	return cr.buf[off : off+uint64(n)], nil
}

type errEmptyHeader uint64

func (e errEmptyHeader) Error() string {
	return "fishstore: empty record header on chain"
}
