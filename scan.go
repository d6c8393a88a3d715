package fishstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fishstore/internal/epoch"
	"fishstore/internal/expr"
	"fishstore/internal/hlog"
	"fishstore/internal/pagecache"
	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/telemetry"
	"fishstore/internal/trace"
	"fishstore/internal/wordio"
)

// Record is one retrieved record.
type Record struct {
	// Address is the record's logical address on the log.
	Address uint64
	// Payload is the raw record bytes. The slice is owned by the caller.
	Payload []byte
}

// ScanMode selects how a subset retrieval executes (§7.1).
type ScanMode int

const (
	// ScanAuto splits the range into index scans (where the PSF's index is
	// complete) and full scans (elsewhere), with adaptive prefetching on
	// storage. This is FishStore's default behaviour.
	ScanAuto ScanMode = iota
	// ScanForceFull scans every record in the range, parsing and evaluating
	// the PSF on each (no index use).
	ScanForceFull
	// ScanForceIndex uses only the index, silently skipping unindexed
	// portions of the range.
	ScanForceIndex
	// ScanIndexNoPrefetch is ScanForceIndex with adaptive prefetching
	// disabled: every hash-chain hop on storage issues its own small
	// dependent I/Os (the "Index Scan w/o AP" baseline of Fig 16).
	ScanIndexNoPrefetch
)

func (m ScanMode) String() string {
	switch m {
	case ScanAuto:
		return "auto"
	case ScanForceFull:
		return "full"
	case ScanForceIndex:
		return "index"
	case ScanIndexNoPrefetch:
		return "index-noprefetch"
	}
	return "unknown"
}

// ScanOptions bounds and tunes a subset retrieval.
type ScanOptions struct {
	// From and To delimit the address range [From, To); zero means the
	// begin/tail of the log respectively.
	From, To uint64
	// Mode selects the execution strategy.
	Mode ScanMode
	// Parallelism > 1 splits full-scan segments page-wise across that many
	// goroutines and walks the shard chains of a sharded PSF concurrently
	// (Appendix F). Callback invocations are serialized.
	Parallelism int
}

// Segment is one piece of a scan plan.
type Segment struct {
	From, To uint64
	Indexed  bool
}

// ScanStats reports how a scan executed.
type ScanStats struct {
	// Matched is the number of records delivered to the callback.
	Matched int64
	// Visited is the number of records examined (full-scan records plus
	// chain entries traversed).
	Visited int64
	// IndexHops is the number of hash-chain pointers followed.
	IndexHops int64
	// FullScanBytes is the log volume covered by full scans.
	FullScanBytes int64
	// IOs / ReadBytes count device reads issued by this scan.
	IOs, ReadBytes int64
	// PrefetchHits is the number of chain hops served from the adaptive
	// prefetcher's speculation buffer or the shared page cache (random
	// I/Os saved).
	PrefetchHits int64
	// PageCacheHits is the number of device-page lookups this scan served
	// from the read-through page cache (a subset of PrefetchHits on chain
	// walks, plus full-scan pages served without touching the device).
	PageCacheHits int64
	// Quarantined counts device-fetched records this scan skipped because
	// their checksum failed (Options.VerifyOnRead). Such records are never
	// delivered to the callback and their chain links are not followed.
	Quarantined int64
	// Stopped is set when the callback terminated the scan early (the
	// paper's Touch early-stop signal).
	Stopped bool
	// Plan is the executed segment plan.
	Plan []Segment
}

// Scan retrieves all records with the given property within the option
// range, invoking cb for each match. Returning false from cb stops the scan
// early. Full-scan segments deliver records in ascending address order;
// index segments follow hash chains and deliver in descending order.
func (s *Store) Scan(prop Property, opts ScanOptions, cb func(r Record) bool) (ScanStats, error) {
	return s.ScanContext(nil, prop, opts, cb)
}

// ScanContext is Scan with deadline/cancellation propagation: ctx is polled
// at page and chain-hop boundaries on every execution path (page walker,
// serial or parallel; chain walk), and before every device read a chain
// walk or indirect-record resolution issues.
// A cancelled scan returns ctx's error with the stats accumulated so far;
// epochs, the page cache, and prefetch state are left consistent.
func (s *Store) ScanContext(ctx context.Context, prop Property, opts ScanOptions, cb func(r Record) bool) (ScanStats, error) {
	var st ScanStats
	if err := ctxErr(ctx); err != nil {
		return st, err
	}
	from, to := s.clampRange(opts.From, opts.To)
	if from >= to {
		return st, nil
	}
	// One sampled root span per scan; nil (tracing off / unsampled) makes
	// every child below nil too.
	sp := s.tracer.StartRoot("scan")
	defer sp.End()
	psp := sp.Child("scan.plan")
	st.Plan = s.planScan(prop.PSF, from, to, opts.Mode)
	if psp != nil {
		// The Φ decision: the cost-model inputs in force when this plan was
		// chosen, pinned to the span so the trace explains the index/full
		// split the same way /debug/fishstore/scan does.
		phi, profile := costModel(s.log)
		psp.SetInt("segments", int64(len(st.Plan)))
		psp.SetUint("phi_bytes", phi)
		psp.SetFloat("bw_seq_bytes_per_sec", profile.SeqBandwidth)
		psp.SetFloat("lat_rand_seconds", profile.RandLatency.Seconds())
		psp.End()
		sp.SetInt("psf", int64(prop.PSF))
		sp.SetStr("mode", opts.Mode.String())
		sp.SetUint("from", from)
		sp.SetUint("to", to)
	}

	met := s.metrics
	met.scans.Inc()
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		s.recordScanDecision(prop.PSF, opts.Mode, from, to, &st, elapsed)
		if slow := s.opts.SlowOpThreshold; slow > 0 && elapsed >= slow {
			met.event("scan.slow", trace.Float("seconds", elapsed.Seconds()),
				trace.Int("matched", st.Matched), trace.Int("visited", st.Visited),
				trace.Int("ios", st.IOs), trace.Int("segments", int64(len(st.Plan))))
		}
		if !met.reg.Enabled() {
			return
		}
		met.scanSeconds.Observe(int64(elapsed))
		met.scanMatched.Add(st.Matched)
		met.scanVisited.Add(st.Visited)
		met.scanIndexHops.Add(st.IndexHops)
		met.scanFullBytes.Add(st.FullScanBytes)
		met.scanIOReads.Add(st.IOs)
		met.scanIOReadBytes.Add(st.ReadBytes)
		for _, seg := range st.Plan {
			if seg.Indexed {
				met.scanSegIndexed.Inc()
			} else {
				met.scanSegFull.Inc()
			}
		}
	}()

	def, ok := s.registry.Lookup(prop.PSF)
	if !ok {
		return st, fmt.Errorf("fishstore: unknown PSF id %d", prop.PSF)
	}
	canon := psf.CanonicalValue(prop.Value)

	g := s.epoch.Acquire()
	defer g.Release()

	emit := func(r Record) bool {
		st.Matched++
		return cb(r)
	}

	for _, seg := range st.Plan {
		if err := ctxErr(ctx); err != nil {
			return st, err
		}
		var stopped bool
		var err error
		var ssp *trace.Span
		visitedBefore, iosBefore := st.Visited, st.IOs
		// One clock times both segment kinds. Pointer-match full scans count
		// as full-scan work in the workload view: the operator's question is
		// "how much of the read path bypassed the index", not "which matcher
		// ran".
		op := telemetry.OpFullScan
		segStart := time.Now()
		if seg.Indexed {
			if sp != nil {
				ssp = sp.Child("scan.segment.index")
			}
			op = telemetry.OpIndexScan
			useAP := opts.Mode != ScanIndexNoPrefetch
			stopped, err = s.indexScanSegment(ctx, g, prop, canon, seg.From, seg.To, useAP, opts.Parallelism, ssp, emit, &st)
		} else {
			if sp != nil {
				ssp = sp.Child("scan.segment.full")
			}
			stopped, err = s.fullScanSegment(ctx, g, prop, def, canon, seg.From, seg.To, opts.Parallelism, emit, &st)
		}
		s.tele.RecordOp(op, time.Since(segStart))
		if ssp != nil {
			ssp.SetUint("from", seg.From)
			ssp.SetUint("to", seg.To)
			ssp.SetInt("visited", st.Visited-visitedBefore)
			ssp.SetInt("ios", st.IOs-iosBefore)
			ssp.End()
		}
		if err != nil {
			return st, err
		}
		if stopped {
			st.Stopped = true
			break
		}
	}
	if sp != nil {
		sp.SetInt("matched", st.Matched)
		sp.SetInt("visited", st.Visited)
	}
	// Queried-property heavy hitters answer "which predicates do reads pay
	// for" — the read-side complement of the ingest PSF attribution.
	s.tele.ObserveQueried(def.Name+"="+string(canon), st.Matched, st.ReadBytes)
	return st, nil
}

// Lookup retrieves recent records for a property using only the index (a
// point-lookup over the live indexed interval, served from memory when the
// log suffix is resident). cb semantics match Scan.
func (s *Store) Lookup(prop Property, cb func(r Record) bool) (ScanStats, error) {
	ivs := s.registry.Intervals(prop.PSF)
	if len(ivs) == 0 {
		return ScanStats{}, fmt.Errorf("fishstore: PSF %d has no indexed interval", prop.PSF)
	}
	last := ivs[len(ivs)-1]
	to := last.To
	if last.Open() {
		to = 0 // tail
	}
	return s.Scan(prop, ScanOptions{From: last.From, To: to, Mode: ScanForceIndex}, cb)
}

// ctxErr polls a scan/ingest context at an operation-internal cancellation
// point. nil and non-cancellable contexts cost a nil check.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func (s *Store) clampRange(from, to uint64) (uint64, uint64) {
	if from < hlog.BeginAddress {
		from = hlog.BeginAddress
	}
	if t := s.truncatedUntil.Load(); from < t {
		from = t
	}
	tail := s.log.TailAddress()
	if to == 0 || to > tail {
		to = tail
	}
	return from, to
}

// planScan splits [from, to) into indexed and unindexed segments using the
// PSF's safe registration intervals.
func (s *Store) planScan(id psf.ID, from, to uint64, mode ScanMode) []Segment {
	if mode == ScanForceFull {
		return []Segment{{From: from, To: to, Indexed: false}}
	}
	ivs := s.registry.Intervals(id)
	var plan []Segment
	cur := from
	for _, iv := range ivs {
		lo, hi := iv.From, iv.To
		if hi > to {
			hi = to
		}
		if lo < cur {
			lo = cur
		}
		if lo >= hi {
			continue
		}
		if lo > cur {
			plan = append(plan, Segment{From: cur, To: lo, Indexed: false})
		}
		plan = append(plan, Segment{From: lo, To: hi, Indexed: true})
		cur = hi
	}
	if cur < to {
		plan = append(plan, Segment{From: cur, To: to, Indexed: false})
	}
	if mode == ScanForceIndex || mode == ScanIndexNoPrefetch {
		out := plan[:0]
		for _, seg := range plan {
			if seg.Indexed {
				out = append(out, seg)
			}
		}
		plan = out
	}
	return plan
}

// ---- full scan ----

// recordMatcher decides whether the record at addr carries the scanned
// property and, if so, returns the Record to deliver. A matcher belongs to
// one worker (the parse matcher owns a parser session).
type recordMatcher func(addr uint64, v record.View) (Record, bool)

// fullScanSegment walks every record in [from, to) and emits the matches.
// Where the PSF's index is complete over the whole range, records are
// matched by their ingest-time key pointers (no parsing); elsewhere each
// record is parsed and the PSF re-evaluated. Over an index-complete range
// the two matchers give identical answers: a record whose parse failed at
// ingest got no pointer and fails the scan-side parse too, and indirect
// index records are skipped by both.
func (s *Store) fullScanSegment(ctx context.Context, g *epoch.Guard, prop Property, def psf.Definition, canon []byte,
	from, to uint64, workers int, emit func(Record) bool, st *ScanStats) (bool, error) {

	st.FullScanBytes += int64(to - from)
	byPointer := s.rangeIndexComplete(prop.PSF, from, to)
	newMatcher := func() (recordMatcher, error) {
		if byPointer {
			return func(addr uint64, v record.View) (Record, bool) {
				return s.matchByPointer(prop, canon, addr, v)
			}, nil
		}
		psess, err := s.pf.NewSession(def.Fields)
		if err != nil {
			return nil, err
		}
		// This worker's payload and canonical-value buffers: the parse and
		// the comparison reuse them, and only a match is cloned.
		var buf, got []byte
		return func(addr uint64, v record.View) (Record, bool) {
			buf = v.AppendPayload(buf[:0])
			parsed, err := psess.Parse(buf)
			if err != nil {
				return Record{}, false
			}
			// A record the PSF maps to missing got no key pointer at
			// ingest, so it matches no property, not even an empty value.
			val := def.Evaluate(parsed)
			if val.Kind == expr.KindMissing {
				return Record{}, false
			}
			if got = psf.AppendCanonical(got[:0], val); !bytes.Equal(got, canon) {
				return Record{}, false
			}
			return Record{Address: addr, Payload: bytes.Clone(buf)}, true
		}, nil
	}
	return s.scanPages(ctx, g, from, to, workers, newMatcher, emit, st)
}

// rangeIndexComplete reports whether the PSF's index is guaranteed complete
// over every address in [from, to): within such a range, ingest-time
// evaluation produced a key pointer for exactly the records the PSF matches,
// so scanning key pointers and re-evaluating the PSF over parsed payloads
// give identical answers.
func (s *Store) rangeIndexComplete(id psf.ID, from, to uint64) bool {
	cur := from
	for _, iv := range s.registry.Intervals(id) {
		if cur < iv.From {
			return false // gap before this interval
		}
		if cur < iv.To {
			cur = iv.To
		}
		if cur >= to {
			return true
		}
	}
	return cur >= to
}

// matchByPointer checks whether the record at addr carries a key pointer
// for prop with the queried value, returning the emitted record on a match.
// Indirect (historical index) records never match — the parse matcher skips
// them too.
//
//fishlint:hotpath per-record subset-scan match
func (s *Store) matchByPointer(prop Property, canon []byte, addr uint64, v record.View) (Record, bool) {
	h := v.Header()
	if h.Indirect {
		return Record{}, false
	}
	for i := 0; i < h.NumPtrs; i++ {
		kp := v.KeyPointerAt(i)
		if kp.PSFID != prop.PSF {
			continue
		}
		// At most one pointer per PSF per record: this is the decision.
		if bytes.Equal(v.ValueBytes(kp), canon) {
			return Record{Address: addr, Payload: v.Payload()}, true
		}
		return Record{}, false
	}
	return Record{}, false
}

// scanPages is the page driver of every full scan: workers claim the pages
// of [from, to) in ascending order from a shared counter and walk each
// through visitRange with a matcher of their own. With workers <= 1 the one
// worker runs on the caller's goroutine under the caller's guard, so matches
// are delivered in ascending address order and emit is called without a
// lock. With more (Appendix F) each worker holds its own guard, emit is
// serialized by a mutex — and never called again once it returned false —
// and delivery order is arbitrary.
func (s *Store) scanPages(ctx context.Context, g *epoch.Guard, from, to uint64, workers int,
	newMatcher func() (recordMatcher, error), emit func(Record) bool, st *ScanStats) (bool, error) {

	pageSize := s.log.PageSize()
	lastPage := s.log.PageOf(to - 1)
	var nextPage atomic.Uint64
	nextPage.Store(s.log.PageOf(from))

	var (
		mu       sync.Mutex // with workers > 1: guards emit, st and firstErr
		stopped  atomic.Bool
		firstErr error
	)
	deliver := emit
	if workers > 1 {
		deliver = serializeEmit(&mu, &stopped, emit)
	}
	work := func(g *epoch.Guard) {
		var visited, quarantined, cacheHits int64
		var err error
		defer func() {
			mu.Lock()
			st.Visited += visited
			st.Quarantined += quarantined
			st.PageCacheHits += cacheHits
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
		var match recordMatcher
		if match, err = newMatcher(); err != nil {
			return
		}
		visit := func(addr uint64, v record.View) bool {
			visited++
			if r, ok := match(addr, v); ok && !deliver(r) {
				stopped.Store(true)
				return false
			}
			return true
		}
		for err == nil && !stopped.Load() {
			p := nextPage.Add(1) - 1
			if p > lastPage {
				return
			}
			lo, hi := max(p*pageSize, from), min((p+1)*pageSize, to)
			err = s.visitRange(ctx, g, lo, hi, &quarantined, &cacheHits, visit)
		}
	}

	if workers <= 1 {
		work(g)
		return stopped.Load(), firstErr
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wg2 := s.epoch.Acquire()
			defer wg2.Release()
			work(wg2)
		}()
	}
	// The workers hold their own guards; don't pin the safe epoch waiting.
	g.Unprotect()
	wg.Wait()
	g.Protect()
	return stopped.Load(), firstErr
}

// serializeEmit wraps emit for concurrent scan workers: calls are serialized
// by mu, and once emit has returned false — recorded in stopped — it is never
// called again.
func serializeEmit(mu *sync.Mutex, stopped *atomic.Bool, emit func(Record) bool) func(Record) bool {
	return func(r Record) bool {
		mu.Lock()
		defer mu.Unlock()
		if stopped.Load() || !emit(r) {
			stopped.Store(true)
			return false
		}
		return true
	}
}

// visitRange is the page walker: it visits all visible records in [from, to)
// in address order, taking each page from its memory frame, the page cache
// or the device as appropriate. from and to must be record boundaries. With
// Options.VerifyOnRead, records on device-resident pages are
// checksum-validated and quarantined on failure: skipped (counted into
// quarantined, when non-nil) rather than delivered. In-memory pages are
// exempt: their records are sealed only at flush time. cacheHits, when
// non-nil, counts page reads served by the read-through page cache.
func (s *Store) visitRange(ctx context.Context, g *epoch.Guard, from, to uint64, quarantined, cacheHits *int64,
	visit func(addr uint64, v record.View) bool) error {
	pageSize := s.log.PageSize()

	for addr := from; addr < to; {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		pageStart := addr &^ (pageSize - 1)
		pageEnd := pageStart + pageSize
		limit := to
		if pageEnd < limit {
			limit = pageEnd
		}
		g.Refresh()

		vfn := visit
		var words []uint64         // page words from addr onward
		var pinned *pagecache.Page // the cached page words alias, while walked
		if addr >= s.log.HeadAddress() {
			words = s.log.PageWordsFrom(addr)
		} else {
			// On-device data below HeadAddress is immutable, so the read
			// needs no epoch protection — and must not hold it: a pinned
			// safe epoch stalls page-frame recycling for every worker.
			n := int(pageEnd-addr) / 8
			g.Unprotect()
			w, p, hit, err := s.devicePageWords(addr, n)
			g.Protect()
			if err != nil {
				return fmt.Errorf("fishstore: full scan read at %d: %w", addr, err)
			}
			if hit && cacheHits != nil {
				*cacheHits++
			}
			words, pinned = w, p
			if s.opts.VerifyOnRead {
				vfn = func(addr uint64, v record.View) bool {
					h := v.Header()
					if reason := validateRecord(addr, h, v); reason != "" || !v.ChecksumOK() {
						if reason == "" {
							reason = "checksum mismatch"
						}
						s.quarantineRecord(addr, quarantined, "full-scan", reason)
						return true // skip the record, continue the walk
					}
					return visit(addr, v)
				}
			}
		}
		more := walkRecords(words, addr, limit, vfn)
		pinned.Release()
		if !more {
			return nil
		}
		addr = pageEnd
	}
	return nil
}

// devicePageWords reads the n words starting at the on-device address addr,
// through the read-through page cache when enabled (the whole page is
// filled, evicting another if need be; addr and addr+n*8 never straddle a
// page boundary — visitRange walks page by page). When the words alias a
// cached page, that page is returned pinned for the caller to release. The
// caller must have dropped epoch protection and polled its scan's context
// (visitRange does, per page). The third result reports whether the read
// was served from the cache.
func (s *Store) devicePageWords(addr uint64, n int) ([]uint64, *pagecache.Page, bool, error) {
	if s.pcache != nil {
		page := s.log.PageOf(addr)
		p, hit, err := s.pcache.GetOrLoad(page, func(dst []uint64) ([]uint64, error) {
			return readPage(s.log, page, dst)
		})
		if err != nil {
			return nil, nil, false, err
		}
		if p != nil {
			off := s.log.OffsetOf(addr) / 8
			return p.Words()[off : off+uint64(n)], p, hit, nil
		}
		// Uncacheable (truncated, or every page of its shard pinned): read
		// around the cache.
	}
	w, err := s.log.ReadWordsFromDevice(addr, n)
	return w, nil, false, err
}

// readPage is the page cache's loader: it reads the whole on-device page
// straight into dst, a recycled frame, or into a new page when dst is nil.
// It takes no context: a single-flight fill is shared by every scan that
// joins it, so one scan's cancellation must not fail the others. Callers
// poll their own context before asking the cache for a page.
func readPage(log *hlog.Log, page uint64, dst []uint64) ([]uint64, error) {
	if dst == nil {
		dst = make([]uint64, log.PageSize()/8)
	}
	if err := log.ReadBytesFromDevice(page*log.PageSize(), wordio.Bytes(dst)); err != nil {
		return nil, err
	}
	return dst, nil
}

// quarantineRecord accounts for a device-fetched record whose checksum (or
// structure) failed under VerifyOnRead: it is counted, recorded as an event
// with its address so the flight recorder pins where the log is damaged, and
// never surfaced. quarantined may be nil (callers without scan stats). where
// names the read path that hit the record ("full-scan", "chain",
// "indirect-target") and is a separate event attribute so hot callers never
// concatenate strings.
func (s *Store) quarantineRecord(addr uint64, quarantined *int64, where, reason string) {
	if quarantined != nil {
		atomic.AddInt64(quarantined, 1)
	}
	s.metrics.corruptRecords.Inc()
	s.metrics.event("scan.quarantine",
		trace.Uint("address", addr), trace.Str("where", where), trace.Str("reason", reason))
}

// walkRecords iterates the records laid out in words (whose first word is
// the header at baseAddr), invoking visit for each visible record starting
// below limit. Returns false if visit stopped the walk.
func walkRecords(words []uint64, baseAddr, limit uint64, visit func(addr uint64, v record.View) bool) bool {
	off := 0
	for off < len(words) {
		hw := atomic.LoadUint64(&words[off])
		h := record.UnpackHeader(hw)
		if h.SizeWords == 0 {
			return true // unwritten tail region
		}
		addr := baseAddr + uint64(off)*8
		if addr >= limit {
			return true
		}
		if !h.Filler && h.Visible && !h.Invalid {
			if off+h.SizeWords > len(words) {
				return true // torn tail record (still being written)
			}
			if !visit(addr, record.View{Words: words[off : off+h.SizeWords]}) {
				return false
			}
		}
		off += h.SizeWords
	}
	return true
}

// ---- index scan ----

// indexScanSegment retrieves matching records in [from, to) through the
// subset hash index. For sharded PSFs (Appendix F) every shard chain is
// traversed; with parallelism > 1 the shard chains are walked concurrently
// with serialized emission. A single chain is always walked serially.
func (s *Store) indexScanSegment(ctx context.Context, g *epoch.Guard, prop Property, canon []byte,
	from, to uint64, useAP bool, parallelism int, sp *trace.Span, emit func(Record) bool, st *ScanStats) (bool, error) {

	def, _ := s.registry.Lookup(prop.PSF)
	shards := def.ShardCount()
	if shards == 1 {
		slot, ok := s.table.FindEntry(prop.hash())
		if !ok {
			return false, nil
		}
		return s.walkChain(ctx, g, slot.Address(), prop, canon, from, to, useAP, sp, emit, st)
	}
	var heads []uint64
	for shard := 0; shard < shards; shard++ {
		h := psf.ShardHash(prop.PSF, canon, shard, shards)
		if slot, ok := s.table.FindEntry(h); ok {
			heads = append(heads, slot.Address())
		}
	}
	if parallelism > 1 && len(heads) > 1 {
		return s.parallelChainWalk(ctx, heads, prop, canon, from, to, useAP, sp, emit, st)
	}
	for _, head := range heads {
		if err := ctxErr(ctx); err != nil {
			return false, err
		}
		stopped, err := s.walkChain(ctx, g, head, prop, canon, from, to, useAP, sp, emit, st)
		if err != nil || stopped {
			return stopped, err
		}
	}
	return false, nil
}

// parallelChainWalk traverses shard chains concurrently (Appendix F's
// parallel index scan), one goroutine per chain, serializing emission.
func (s *Store) parallelChainWalk(ctx context.Context, heads []uint64, prop Property, canon []byte,
	from, to uint64, useAP bool, sp *trace.Span, emit func(Record) bool, st *ScanStats) (bool, error) {

	var mu sync.Mutex // guards emit, st and firstErr
	var stopped atomic.Bool
	var firstErr error
	var wg sync.WaitGroup
	serial := serializeEmit(&mu, &stopped, emit)
	for _, head := range heads {
		wg.Add(1)
		go func(head uint64) {
			defer wg.Done()
			wg2 := s.epoch.Acquire()
			defer wg2.Release()
			var local ScanStats
			_, err := s.walkChain(ctx, wg2, head, prop, canon, from, to, useAP, sp, serial, &local)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			st.Visited += local.Visited
			st.IndexHops += local.IndexHops
			st.IOs += local.IOs
			st.ReadBytes += local.ReadBytes
			st.PrefetchHits += local.PrefetchHits
			st.PageCacheHits += local.PageCacheHits
			st.Quarantined += local.Quarantined
			mu.Unlock()
		}(head)
	}
	wg.Wait()
	return stopped.Load(), firstErr
}

// forEachChainLink follows the hash chain whose newest key pointer is at
// head, resolving each link's record from the circular buffer or from
// storage (optionally through the adaptive prefetcher), and invokes fn with
// the link's key-pointer address, record view, record base address, and
// decoded key pointer. Traversal stops when fn returns false, the chain
// terminates, or a link drops below floor (links below the floor are never
// resolved — on a truncated log their records may be gone). I/O accounting
// is added to st; when sp is a live span, each device read the chain reader
// issues becomes a scan.io child under it. Index scans, the chain sampler,
// the log verifier's chain phase and ChainGapProfile all walk chains
// through this one path.
func (s *Store) forEachChainLink(ctx context.Context, g *epoch.Guard, head uint64, floor uint64, useAP bool, sp *trace.Span, st *ScanStats,
	fn func(kptAddr uint64, view record.View, base uint64, kp record.KeyPointer) bool) error {

	cur := head
	var cr *chainReader
	hops := 0
	defer func() {
		if cr != nil {
			st.IOs += cr.ios
			st.ReadBytes += cr.bytesRead
			st.PrefetchHits += cr.hits
			st.PageCacheHits += cr.cacheHits
			cr.release()
		}
	}()

	for cur != 0 && cur >= floor {
		hops++
		if hops%64 == 0 {
			// The epoch-refresh cadence doubles as the cancellation-poll
			// cadence: both want "often, but not per in-memory hop".
			if err := ctxErr(ctx); err != nil {
				return err
			}
			g.Refresh()
		}
		var view record.View
		var base uint64
		if cur >= s.log.HeadAddress() {
			v, b, err := s.inMemoryRecordAt(cur)
			if err != nil {
				return err
			}
			view, base = v, b
		} else {
			if cr == nil {
				// Only adaptive walks read through the page cache: the
				// no-prefetch baseline, the verifier and the chain sampler
				// measure the raw device path.
				var cache *pagecache.Cache
				if useAP {
					cache = s.pcache
				}
				cr = newChainReader(ctx, s.log, useAP, cache, s.metrics, sp)
			}
			// Device reads target the immutable on-disk log; drop epoch
			// protection for their duration so page recycling can proceed.
			g.Unprotect()
			v, b, err := cr.record(cur)
			g.Protect()
			if err != nil && cur < s.logBegin() {
				return nil // truncated under the walk: the chain ends at the new floor
			}
			if bad, ok := err.(errBadLink); ok && s.opts.VerifyOnRead {
				// A corrupt link: quarantine and stop, as for a record that
				// fails validation below.
				s.quarantineRecord(uint64(bad), &st.Quarantined, "chain", "link does not land on a key pointer")
				return nil
			}
			if err != nil {
				return fmt.Errorf("fishstore: chain read at %d: %w", cur, err)
			}
			if s.opts.VerifyOnRead {
				h := v.Header()
				reason := validateRecord(b, h, v)
				if reason == "" && !v.ChecksumOK() {
					reason = "checksum mismatch"
				}
				if reason != "" {
					// Quarantine AND terminate the walk: the prev pointer we
					// would follow lives in this corrupt record, so every
					// address it yields is untrustworthy.
					s.quarantineRecord(b, &st.Quarantined, "chain", reason)
					return nil
				}
			}
			view, base = v, b
		}
		st.IndexHops++
		st.Visited++

		ptrIndex := (int((cur-base)/8) - record.HeaderWords) / record.WordsPerPointer
		kp := view.KeyPointerAt(ptrIndex)
		if !fn(cur, view, base, kp) {
			return nil
		}
		cur = kp.PrevAddress
	}
	return nil
}

// walkChain follows one hash chain from head, emitting matching records
// whose address lies in [from, to). Entries above `to` are skipped (but
// still traversed); traversal stops below `from`.
func (s *Store) walkChain(ctx context.Context, g *epoch.Guard, head uint64, prop Property, canon []byte,
	from, to uint64, useAP bool, sp *trace.Span, emit func(Record) bool, st *ScanStats) (bool, error) {

	var stopped bool
	var cbErr error
	err := s.forEachChainLink(ctx, g, head, from, useAP, sp, st,
		func(cur uint64, view record.View, base uint64, kp record.KeyPointer) bool {
			h := view.Header()
			if !h.Visible || h.Invalid || kp.PSFID != prop.PSF || !bytes.Equal(view.ValueBytes(kp), canon) {
				return true
			}
			rec, merr := s.materialize(ctx, g, view, base, st)
			if errors.Is(merr, errQuarantined) {
				return true // indirect target corrupt: skip, keep walking
			}
			if merr != nil {
				cbErr = merr
				return false
			}
			// For indirect (historical) index records the range check
			// applies to the referenced data record's address.
			if rec.Address >= from && rec.Address < to && !emit(rec) {
				stopped = true
				return false
			}
			return true
		})
	if err == nil {
		err = cbErr
	}
	return stopped, err
}

// inMemoryRecordAt resolves the record containing the key pointer at
// kptAddr from the circular buffer.
func (s *Store) inMemoryRecordAt(kptAddr uint64) (record.View, uint64, error) {
	kw := s.log.WordsAt(kptAddr, 1)
	a := atomic.LoadUint64(&kw[0])
	offWords := int(a >> 50)
	base := kptAddr - uint64(offWords)*8
	hw := s.log.WordsAt(base, 1)
	h := record.UnpackHeader(atomic.LoadUint64(&hw[0]))
	if h.SizeWords == 0 {
		return record.View{}, 0, fmt.Errorf("fishstore: empty header at %d", base)
	}
	return record.View{Words: s.log.WordsAt(base, h.SizeWords)}, base, nil
}

// materialize turns a matched view into a Record, resolving historical
// indirection (Appendix A) if needed.
func (s *Store) materialize(ctx context.Context, g *epoch.Guard, view record.View, base uint64, st *ScanStats) (Record, error) {
	h := view.Header()
	if !h.Indirect {
		return Record{Address: base, Payload: view.Payload()}, nil
	}
	// Indirect record: payload is the 8-byte address of the data record.
	pl := view.Payload()
	if len(pl) != 8 {
		return Record{}, errBadIndirect(base)
	}
	target := binary.LittleEndian.Uint64(pl)
	var tv record.View
	if target >= s.log.HeadAddress() {
		hw := s.log.WordsAt(target, 1)
		th := record.UnpackHeader(atomic.LoadUint64(&hw[0]))
		tv = record.View{Words: s.log.WordsAt(target, th.SizeWords)}
	} else {
		// The target is below HeadAddress, hence immutable on device; do
		// not hold the epoch across the reads, and do not start them for a
		// cancelled scan.
		if err := ctxErr(ctx); err != nil {
			return Record{}, err
		}
		g.Unprotect()
		hw, err := s.log.ReadWordsFromDevice(target, 1)
		g.Protect()
		if err != nil {
			return Record{}, err
		}
		th := record.UnpackHeader(hw[0])
		if s.opts.VerifyOnRead && th.SizeWords == 0 {
			s.quarantineRecord(target, &st.Quarantined, "indirect-target", "empty header")
			return Record{}, errQuarantined
		}
		g.Unprotect()
		words, err := s.log.ReadWordsFromDevice(target, th.SizeWords)
		g.Protect()
		if err != nil {
			return Record{}, err
		}
		st.IOs += 2
		st.ReadBytes += int64(8 + th.SizeWords*8)
		tv = record.View{Words: words}
		if s.opts.VerifyOnRead {
			reason := validateRecord(target, tv.Header(), tv)
			if reason == "" && !tv.ChecksumOK() {
				reason = "checksum mismatch"
			}
			if reason != "" {
				s.quarantineRecord(target, &st.Quarantined, "indirect-target", reason)
				return Record{}, errQuarantined
			}
		}
	}
	return Record{Address: target, Payload: tv.Payload()}, nil
}

// errBadIndirect is the address of an indirect record whose payload is not
// the expected 8-byte target address. A typed error (like errBadLink)
// keeps the construction allocation-free on the audited chain-walk path.
type errBadIndirect uint64

func (e errBadIndirect) Error() string {
	return "fishstore: indirect record payload is not an 8-byte address"
}

// errQuarantined is the internal sentinel materialize returns when
// VerifyOnRead rejected an indirect record's device-resident target; the
// chain walk skips the record instead of aborting the scan.
var errQuarantined = errors.New("fishstore: record quarantined")
