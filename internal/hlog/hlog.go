// Package hlog implements FishStore's hybrid log (§3.1, §4.2, Appendix C):
// a single logical address space spanning main memory and storage, used as
// an append-only record allocator.
//
// The tail of the log lives in a fixed-size circular buffer of page frames,
// each allocated when a page first uses it. Space is claimed with an atomic
// fetch-and-add on a packed (page, offset) word; the unique allocator whose
// claim straddles a page boundary seals the page (writing a filler header
// over the unusable tail), schedules its flush to the storage device, and
// opens the next page. Opening a page that wraps the circular buffer waits
// for (a) the evicted page's flush to complete and (b) an epoch bump to
// retire all concurrent readers of the evicted frame, exactly the protocol
// described in Appendix C.
//
// Pages are []uint64 so that record headers and key pointers can be mutated
// with sync/atomic; see package record.
package hlog

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fishstore/internal/epoch"
	"fishstore/internal/record"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
	"fishstore/internal/wordio"
)

// Address is a 48-bit logical byte address on the log. All record addresses
// are 8-byte aligned; address 0 is invalid (nil chain terminator).
type Address = uint64

// InvalidAddress is the nil address.
const InvalidAddress Address = 0

const (
	offsetBits = 41
	offsetMask = uint64(1)<<offsetBits - 1

	// BeginAddress is the first allocatable address. Low addresses are
	// reserved so that 0 can mean "none".
	BeginAddress Address = 64
)

// Config configures a Log.
type Config struct {
	// PageBits sets the page size to 1<<PageBits bytes. Min 12 (4KB).
	PageBits uint
	// MemPages is the number of in-memory circular buffer frames (>= 2).
	MemPages int
	// Device persists sealed pages. If nil, a discarding null device is
	// used (in-memory mode).
	Device storage.Device
	// Epoch is the epoch manager shared with the store. Required.
	Epoch *epoch.Manager
	// OnFlush, if set, is called after every page flush completes, outside
	// the log's flush lock, with the flushed page number and the device
	// error (nil on success). Used by the store's flight recorder to keep a
	// trace of durability progress leading up to a crash.
	OnFlush func(page uint64, err error)
	// Tracer, if set, gives every page flush (background and FlushTail) its
	// own span. nil disables flush spans.
	Tracer *trace.Tracer
}

// DefaultConfig returns a config with 1MB pages and a 16MB buffer.
func DefaultConfig(e *epoch.Manager) Config {
	return Config{PageBits: 20, MemPages: 16, Epoch: e}
}

var (
	// ErrTooLarge is returned when a record cannot fit in one page.
	ErrTooLarge = errors.New("hlog: record larger than page")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("hlog: closed")
)

// Log is the hybrid log. Create with New.
type Log struct {
	pageBits  uint
	pageSize  uint64
	pageWords int
	memPages  int

	// frames[i] is nil until a page first uses frame i (openFrame), so a
	// log holds only the frames its pages have used.
	frames [][]uint64

	// pagedTail packs page(23 bits) | offset(41 bits). The offset may
	// transiently exceed pageSize during allocation races.
	pagedTail atomic.Uint64

	// frameFreeFor[f] holds the highest page number allowed to occupy frame
	// f. Page p may use frame p%memPages once frameFreeFor >= p.
	frameFreeFor []atomic.Uint64

	headAddress     atomic.Uint64 // intent: lowest address kept in memory
	safeHeadAddress atomic.Uint64 // epoch-safe: readers may touch >= this
	flushedUntil    atomic.Uint64 // all addresses < this are durable

	device storage.Device
	epoch  *epoch.Manager

	flushMu    sync.Mutex
	flushedPgs map[uint64]uint64 // sealed page -> its end address, pending contiguous advance
	flushErr   error
	flushWG    sync.WaitGroup
	onFlush    func(page uint64, err error)
	tracer     *trace.Tracer

	closed atomic.Bool
}

// New creates a hybrid log.
func New(cfg Config) (*Log, error) {
	if cfg.PageBits < 12 || cfg.PageBits > 30 {
		return nil, fmt.Errorf("hlog: PageBits %d out of range [12,30]", cfg.PageBits)
	}
	if cfg.MemPages < 2 {
		return nil, fmt.Errorf("hlog: MemPages %d < 2", cfg.MemPages)
	}
	if cfg.Epoch == nil {
		return nil, errors.New("hlog: Epoch manager required")
	}
	dev := cfg.Device
	if dev == nil {
		dev = storage.NewNull()
	}
	l := &Log{
		pageBits:     cfg.PageBits,
		pageSize:     1 << cfg.PageBits,
		pageWords:    1 << (cfg.PageBits - 3),
		memPages:     cfg.MemPages,
		frames:       make([][]uint64, cfg.MemPages),
		frameFreeFor: make([]atomic.Uint64, cfg.MemPages),
		device:       dev,
		epoch:        cfg.Epoch,
		flushedPgs:   make(map[uint64]uint64),
		onFlush:      cfg.OnFlush,
		tracer:       cfg.Tracer,
	}
	for i := range l.frameFreeFor {
		l.frameFreeFor[i].Store(uint64(i))
	}
	l.pagedTail.Store(pack(0, BeginAddress))
	l.headAddress.Store(BeginAddress)
	l.safeHeadAddress.Store(BeginAddress)
	l.flushedUntil.Store(BeginAddress)
	l.openFrame(0)
	return l, nil
}

// pack masks the offset so a transiently overflowed tail offset (Allocate
// publishes page+offset before the seal-and-advance settles) cannot bleed
// into the page number — the same carry hazard address() documents.
func pack(page, offset uint64) uint64    { return page<<offsetBits | offset&offsetMask }
func unpack(v uint64) (page, off uint64) { return v >> offsetBits, v & offsetMask }

// PageSize returns the page size in bytes.
func (l *Log) PageSize() uint64 { return l.pageSize }

// MemPages returns the number of circular-buffer frames.
func (l *Log) MemPages() int { return l.memPages }

// address composes a logical address. Addition, not OR: callers such as
// TailAddress pass off == pageSize for an exactly-full page, and the carry
// must propagate into the page number (OR would silently alias the offset
// bit into odd page numbers, rendering the tail one page too low).
func (l *Log) address(page, off uint64) Address { return page<<l.pageBits + off }

// PageOf returns the page number containing addr.
func (l *Log) PageOf(addr Address) uint64 { return addr >> l.pageBits }

// OffsetOf returns addr's offset within its page.
func (l *Log) OffsetOf(addr Address) uint64 { return addr & (l.pageSize - 1) }

// TailAddress returns the current tail (the next address to be allocated).
func (l *Log) TailAddress() Address {
	page, off := unpack(l.pagedTail.Load())
	if off > l.pageSize {
		off = l.pageSize
	}
	return l.address(page, off)
}

// HeadAddress returns the intended in-memory boundary.
func (l *Log) HeadAddress() Address { return l.headAddress.Load() }

// SafeHeadAddress returns the boundary below which readers must go to
// storage. Addresses >= SafeHeadAddress are guaranteed resident while the
// reader holds epoch protection.
func (l *Log) SafeHeadAddress() Address { return l.safeHeadAddress.Load() }

// FlushedUntil returns the durable boundary.
func (l *Log) FlushedUntil() Address { return l.flushedUntil.Load() }

// Allocation is the result of Allocate: the record's logical address and a
// word slice aliasing the in-memory frame where the caller must write the
// record.
type Allocation struct {
	Address Address
	Words   []uint64
}

// Allocate claims sizeWords words on the log tail. The caller must hold g
// protected; Allocate may refresh g while waiting for a frame. The returned
// words alias the live page frame.
func (l *Log) Allocate(g *epoch.Guard, sizeWords int) (Allocation, error) {
	if l.closed.Load() {
		return Allocation{}, ErrClosed
	}
	size := uint64(sizeWords) * 8
	if size > l.pageSize {
		return Allocation{}, fmt.Errorf("%w: %d bytes > page %d", ErrTooLarge, size, l.pageSize)
	}
	for attempt := 0; ; attempt++ {
		v := l.pagedTail.Add(size)
		page, end := unpack(v)
		start := end - size
		if end <= l.pageSize {
			f := l.frameIndex(page)
			base := int(start >> 3)
			return Allocation{
				Address: l.address(page, start),
				Words:   l.frames[f][base : base+sizeWords],
			}, nil
		}
		if start <= l.pageSize {
			// We are the unique allocator straddling the boundary: seal this
			// page and open the next one.
			if err := l.sealAndAdvance(g, page, start); err != nil {
				return Allocation{}, err
			}
			continue
		}
		// Our claim landed entirely past the page: wait for the straddler to
		// open the next page, then retry. If the straddler aborted on a flush
		// error the page will never open; fail rather than spin forever.
		if err := l.waitForPage(g, page+1); err != nil {
			return Allocation{}, err
		}
	}
}

func (l *Log) frameIndex(page uint64) int { return int(page % uint64(l.memPages)) }

// sealAndAdvance seals `page` at offset sealOff (writing a filler record over
// the rest of the page), schedules its flush, prepares the next page's
// frame, and advances pagedTail to (page+1, 0).
func (l *Log) sealAndAdvance(g *epoch.Guard, page, sealOff uint64) error {
	if sealOff < l.pageSize {
		f := l.frameIndex(page)
		holeWords := int(l.pageSize-sealOff) / 8
		atomic.StoreUint64(&l.frames[f][sealOff>>3], record.FillerWord(holeWords))
	}
	// Flush the sealed page once every worker with in-flight writes to it
	// has refreshed past this epoch (records are fully written before a
	// worker refreshes; chain CASes that trail are single atomic words).
	l.scheduleFlush(page)

	next := page + 1
	if err := l.prepareFrame(g, next); err != nil {
		return err
	}

	// Advance the tail. Competing allocators keep bumping the offset of the
	// old packed value, so CAS until we install the new page.
	for {
		cur := l.pagedTail.Load()
		curPage, _ := unpack(cur)
		if curPage >= next {
			return nil // someone else advanced (shouldn't happen: we're unique)
		}
		if l.pagedTail.CompareAndSwap(cur, pack(next, 0)) {
			return nil
		}
	}
}

// prepareFrame makes the frame for page `next` safe to use: waits for the
// evicted page's flush, advances the head address, waits for the epoch
// action that retires readers of the old frame, and opens the frame.
func (l *Log) prepareFrame(g *epoch.Guard, next uint64) error {
	f := l.frameIndex(next)
	if uint64(next) >= uint64(l.memPages) {
		evicted := next - uint64(l.memPages)
		evictedEnd := l.address(evicted+1, 0)

		// 1. The evicted page must be durable before its frame is reused.
		l.waitFlushed(g, evictedEnd)
		if err := l.flushError(); err != nil {
			return err
		}

		// 2. Advance the head and retire readers via the epoch.
		newHead := evictedEnd
		for {
			old := l.headAddress.Load()
			if old >= newHead || l.headAddress.CompareAndSwap(old, newHead) {
				break
			}
		}
		l.epoch.BumpWith(func() {
			for {
				old := l.safeHeadAddress.Load()
				if old >= newHead || l.safeHeadAddress.CompareAndSwap(old, newHead) {
					break
				}
			}
			l.frameFreeFor[f].Store(next)
		})

		// 3. Wait until the frame is released, refreshing our own epoch so we
		// don't deadlock on ourselves.
		for i := 0; l.frameFreeFor[f].Load() < next; i++ {
			if g != nil {
				g.Refresh()
			} else {
				l.epoch.SafeEpoch()
			}
			if i%64 == 63 {
				runtime.Gosched()
			}
		}
	}
	l.openFrame(f)
	return nil
}

// openFrame readies frame f for the page that is about to use it and
// returns it. The first use allocates the frame, already zero; a reuse
// zeroes it. The frame is published by a plain store: readers reach it only
// through the tail CAS that opens its page (or, for Recover, before the log
// is returned), which orders the store before every load.
func (l *Log) openFrame(f int) []uint64 {
	if l.frames[f] == nil {
		l.frames[f] = make([]uint64, l.pageWords)
	} else {
		clear(l.frames[f])
	}
	return l.frames[f]
}

// waitForPage spins until the tail has advanced to at least page. It fails
// instead of spinning once a flush error is recorded: the straddling
// allocator responsible for opening the page aborts on that error, so the
// advance would never come and every waiter would hang (the log is dead —
// e.g. the device lost power mid-flush).
func (l *Log) waitForPage(g *epoch.Guard, page uint64) error {
	for i := 0; ; i++ {
		cur, _ := unpack(l.pagedTail.Load())
		if cur >= page {
			return nil
		}
		if err := l.flushError(); err != nil {
			return err
		}
		if l.closed.Load() {
			return ErrClosed
		}
		if g != nil {
			g.Refresh()
		}
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
}

// scheduleFlush arranges for the sealed page to be flushed once the current
// epoch is safe — i.e., once every worker that might have an in-flight
// (multi-word, non-atomic) record write on the page has refreshed. Trailing
// hash-chain CASes are single atomic words and remain consistent with the
// atomic snapshot taken at flush time.
func (l *Log) scheduleFlush(page uint64) {
	l.flushWG.Add(1)
	l.epoch.BumpWith(func() {
		go l.doFlush(page)
	})
}

func (l *Log) doFlush(page uint64) {
	defer l.flushWG.Done()
	sp := l.tracer.StartRoot("hlog.flush")
	sp.SetUint("page", page)
	err := l.flushPage(page, l.pageWords)
	l.completeFlush(page, err)
	sp.SetInt("bytes", int64(l.pageSize))
	sp.SetBool("error", err != nil)
	sp.End()
}

// flushPage writes page's first n words to the device: it copies them from
// the frame into a private staging page, seals the records there and in the
// frame, and writes the staging page. A sealed page's flush is safe to
// retry: the frame cannot have been recycled (prepareFrame refuses to evict
// a page whose flush failed), the page was sealed before its flush was
// scheduled, and sealing records is idempotent.
func (l *Log) flushPage(page uint64, n int) error {
	frame := l.frames[l.frameIndex(page)]
	stage := make([]uint64, n)
	for i := range stage {
		stage[i] = atomic.LoadUint64(&frame[i])
	}
	l.sealPageRecords(page, frame, stage)
	_, err := l.device.WriteAt(wordio.Bytes(stage), int64(l.address(page, 0)))
	return err
}

// sealPageRecords walks stage, the private staging copy of frame's first
// len(stage) words, with a record.Cursor and seals every complete format-v1
// record before stage reaches the device. The CRC runs over stage's bytes —
// not per-word atomic loads from the frame — and the trailer word is patched
// into both stage (what the device receives) and the live frame (what
// in-memory readers and later re-flushes observe). This is the checksum
// seal point: it runs at flush time, after the epoch bump guarding the
// flush has proven every multi-word record write on the page finished,
// i.e. strictly after the four-phase ingest protocol. The seal covers the
// whole header word: a visible header is final, since its session set the
// visible bit, alone or with the invalid bit (record.View.Abandon), in one
// CAS, its last write to the header. Sealing is idempotent, so a page
// re-flushed by FlushTail and later by doFlush persists identical trailer
// words. The walk ends wherever the cursor stops, or at an invisible record
// (an allocation whose owner died mid-ingest — nothing after it can be
// trusted to be complete, and recovery truncates there anyway), leaving
// such suffixes unsealed.
func (l *Log) sealPageRecords(page uint64, frame, stage []uint64) {
	first := 0
	if page == 0 {
		first = int(BeginAddress / 8) // low addresses are reserved, never records
	}
	c := record.NewCursor(stage[first:], uint64(first)*8, len(stage)-first, 0)
	for {
		off, v, ok := c.Next()
		if !ok {
			return
		}
		h := v.Header()
		if h.Filler() {
			continue
		}
		if !h.Visible() {
			return
		}
		if tw, ok := v.Seal(); ok {
			atomic.StoreUint64(&frame[int(off/8)+len(v.Words)-1], tw)
		}
	}
}

// completeFlush records a finished page flush and advances flushedUntil
// contiguously. The OnFlush hook runs after flushMu is released so it may
// query the log freely.
func (l *Log) completeFlush(page uint64, err error) {
	l.flushMu.Lock()
	if err != nil {
		// Sticky: the failed page's frame is never recycled (prepareFrame
		// surfaces the error instead), and no later flush clears it.
		if l.flushErr == nil {
			l.flushErr = err
		}
	} else {
		l.flushedPgs[page] = l.address(page+1, 0)
		for {
			pg := l.PageOf(l.flushedUntil.Load())
			end, ok := l.flushedPgs[pg]
			if !ok {
				break
			}
			delete(l.flushedPgs, pg)
			l.flushedUntil.Store(end)
		}
	}
	l.flushMu.Unlock()
	if l.onFlush != nil {
		l.onFlush(page, err)
	}
}

// waitFlushed blocks until flushedUntil >= addr, keeping the epoch moving so
// pending flush actions can fire.
func (l *Log) waitFlushed(g *epoch.Guard, addr Address) {
	for i := 0; l.flushedUntil.Load() < addr; i++ {
		if l.flushError() != nil {
			return
		}
		if g != nil {
			g.Refresh()
		} else {
			l.epoch.Drain()
		}
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
}

func (l *Log) flushError() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.flushErr
}

// FlushError exposes the sticky flush error (nil when the log is healthy).
func (l *Log) FlushError() error { return l.flushError() }

// FlushTail synchronously persists the current (unsealed) tail page prefix,
// making everything below TailAddress durable. Used by checkpointing.
func (l *Log) FlushTail() error {
	sp := l.tracer.StartRoot("hlog.flush_tail")
	defer sp.End()
	page, off := unpack(l.pagedTail.Load())
	sp.SetUint("page", page)
	sp.SetUint("offset", off)
	if off > l.pageSize {
		off = l.pageSize
	}
	// Wait for sealed pages first.
	l.waitFlushed(nil, l.address(page, 0))
	if err := l.flushError(); err != nil {
		return err
	}
	if off == 0 {
		return nil
	}
	// The tail never splits a record, so every record covered by [0, off)
	// is complete. Callers that need durability guarantees (checkpoint) hold
	// the ingest barrier, so covered records are also visible; without the
	// barrier a trailing in-flight record simply stays unsealed and recovery
	// truncates before it.
	if err := l.flushPage(page, int(off/8)); err != nil {
		return err
	}
	// Extend the durable boundary into the tail page; only valid because all
	// prior pages are contiguously durable (checked above). Not past a full
	// page: prepareFrame could then recycle its frame under the flush that
	// sealing the page schedules.
	for off < l.pageSize {
		cur := l.flushedUntil.Load()
		target := l.address(page, off)
		if cur >= target || l.PageOf(cur) != page {
			break
		}
		if l.flushedUntil.CompareAndSwap(cur, target) {
			break
		}
	}
	return nil
}

// InMemory reports whether addr is readable from the circular buffer.
//
// Protocol (Appendix C): the head address is advanced *before* the epoch
// bump whose trigger action releases the evicted frame, and the action runs
// only once every protected worker has refreshed past the bump. Therefore a
// reader that (1) holds epoch protection, (2) loads HeadAddress, and
// (3) sees addr >= head may access the frame safely until its own next
// Refresh — any later head advance cannot complete its bump while the
// reader's slot pins the epoch.
func (l *Log) InMemory(addr Address) bool {
	return addr >= l.headAddress.Load()
}

// WordsAt returns a word slice aliasing the in-memory frame at addr,
// spanning n words. The caller must have checked InMemory(addr) under epoch
// protection and must not read past the page end.
func (l *Log) WordsAt(addr Address, n int) []uint64 {
	f := l.frameIndex(l.PageOf(addr))
	base := int(l.OffsetOf(addr) >> 3)
	return l.frames[f][base : base+n]
}

// PageWordsFrom returns the in-memory words of addr's page from addr to the
// page end (or the tail, for the tail page).
func (l *Log) PageWordsFrom(addr Address) []uint64 {
	page := l.PageOf(addr)
	tailPage, tailOff := unpack(l.pagedTail.Load())
	if tailOff > l.pageSize {
		tailOff = l.pageSize
	}
	end := l.pageSize
	if page == tailPage {
		end = tailOff
	} else if page > tailPage {
		return nil
	}
	off := l.OffsetOf(addr)
	if off >= end {
		return nil
	}
	f := l.frameIndex(page)
	return l.frames[f][off>>3 : end>>3]
}

// ReadWordsFromDevice reads n words at addr from the storage device straight
// into a new slice.
//
//fishlint:hotpath per-match read of an indirect target, called through record.ReadAt
func (l *Log) ReadWordsFromDevice(addr Address, n int) ([]uint64, error) {
	//lint:ignore hotalloc fresh words by contract: scans read through it only past the page cache and the speculation buffer
	words := make([]uint64, n)
	if _, err := l.device.ReadAt(wordio.Bytes(words), int64(addr)); err != nil {
		return nil, err
	}
	return words, nil
}

// ReadBytesFromDevice reads raw bytes from the device (for page scans and
// prefetching).
func (l *Log) ReadBytesFromDevice(addr Address, buf []byte) error {
	_, err := l.device.ReadAt(buf, int64(addr))
	return err
}

// Device exposes the underlying device (for profiling and stats).
func (l *Log) Device() storage.Device { return l.device }

// Close flushes the tail and waits for all background flushes. All sessions
// (epoch guards) must be released before Close.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	// Run any pending flush actions; safe because no session is protected.
	l.epoch.WaitForSafe(l.epoch.Current() - 1)
	err := l.FlushTail()
	l.flushWG.Wait()
	if err == nil {
		err = l.flushError()
	}
	return err
}
