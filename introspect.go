package fishstore

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"fishstore/internal/hashtable"
	"fishstore/internal/introspect"
	"fishstore/internal/metrics"
	"fishstore/internal/pagecache"
	"fishstore/internal/psf"
	"fishstore/internal/record"
)

// This file is the store-level half of the deep introspection layer: the
// epoch-safe samplers that walk the subset hash index and the log, the PSF
// lifecycle view, the per-scan decision log, and the flight recorder
// accessors. Everything here reads live latch-free structures with the same
// discipline the scan path uses — atomic loads, epoch guards around
// in-memory access, protection dropped around device I/O — so sampling
// never blocks ingestion.

// registerIntrospection mounts the store's JSON introspection endpoints on
// the registry (served under /debug/fishstore/ by metrics.NewMux) and
// creates the scan decision log. Works with a disabled registry too:
// structural introspection is orthogonal to metric collection.
func (s *Store) registerIntrospection() {
	if s.opts.ScanDecisionLog > 0 {
		s.scanLog = introspect.NewRing[introspect.ScanDecision](s.opts.ScanDecisionLog)
	}
	reg := s.metrics.reg
	reg.RegisterDebug("index", func() any {
		// A fresh (capped) chain sample per request: the endpoint is the
		// interactive "what do my chains look like" view.
		if _, err := s.SampleChains(ChainSampleOptions{}); err != nil {
			return map[string]string{"error": err.Error()}
		}
		return s.IndexStats()
	})
	reg.RegisterDebug("psf", func() any { return s.PSFStatus() })
	reg.RegisterDebug("scan", func() any { return s.ScanDecisions() })
	reg.RegisterDebug("cache", func() any { return s.CacheStats() })
	reg.RegisterDebug("log", func() any {
		ls, err := s.LogComposition(LogSampleOptions{})
		if err != nil {
			return map[string]string{"error": err.Error()}
		}
		return ls
	})
	if fr := s.metrics.flight; fr != nil {
		reg.RegisterDebug("flight", func() any { return fr.Snapshot() })
	}
	// Chrome trace-event JSON of the retained spans; load the response body
	// directly in Perfetto (ui.perfetto.dev). Valid (empty) with tracing off.
	reg.RegisterDebug("spans", func() any { return s.tracer.ChromeTrace() })
}

// IndexStats returns hash-table occupancy (live, from atomic loads) plus the
// most recent chain sample, if any (run SampleChains to refresh it).
func (s *Store) IndexStats() introspect.IndexSnapshot {
	oc := s.table.Occupancy()
	snap := introspect.IndexSnapshot{
		Buckets:          oc.Buckets,
		Entries:          oc.Buckets*7 + oc.OverflowCap*7,
		UsedEntries:      oc.UsedEntries,
		TentativeEntries: oc.TentativeEntries,
		OverflowUsed:     oc.OverflowUsed,
		OverflowCap:      oc.OverflowCap,
		BucketFill:       oc.BucketFill,
		TableBytes:       s.table.SizeBytes(),
		Chains:           s.lastChain.Load(),
	}
	if slots := oc.Buckets * 7; slots > 0 {
		snap.LoadFactor = float64(oc.UsedEntries) / float64(slots)
	}
	return snap
}

// ChainSampleOptions caps a chain sample's work.
type ChainSampleOptions struct {
	// MaxChains bounds how many hash chains are walked (default 1024);
	// chains beyond the cap are counted as skipped.
	MaxChains int
	// MaxLinksPerChain bounds the walk down any one chain (default 4096);
	// chains that hit it are counted as truncated.
	MaxLinksPerChain int
}

// SampleChains walks up to MaxChains hash chains under epoch protection,
// attributing each to its PSF via the chain's key pointers, and publishes a
// per-PSF chain-length histogram (§6.3: chain length is what turns index
// scans into random I/O). Adaptive prefetching is disabled for the walk so
// the sample never perturbs the prefetch gauges; device reads drop epoch
// protection exactly like scans do, so ingestion is never blocked.
func (s *Store) SampleChains(opts ChainSampleOptions) (*introspect.ChainSnapshot, error) {
	if opts.MaxChains <= 0 {
		opts.MaxChains = 1024
	}
	if opts.MaxLinksPerChain <= 0 {
		opts.MaxLinksPerChain = 4096
	}
	start := time.Now()

	// Collect chain heads first (atomic loads only), then walk outside the
	// Range callback so the table scan itself stays trivially short.
	var heads []uint64
	skipped := 0
	s.table.Range(func(_ uint64, _ hashtable.Entry, slot hashtable.Slot) bool {
		if len(heads) >= opts.MaxChains {
			skipped++
			return true
		}
		heads = append(heads, slot.Address())
		return true
	})

	cs := &introspect.ChainSnapshot{SampledAt: start, SkippedChains: skipped}
	floor := s.ChainFloor()
	head := s.log.HeadAddress()
	perPSF := make(map[psf.ID]*psfChainAgg)

	g := s.epoch.Acquire()
	defer g.Release()
	var st ScanStats
	for _, h := range heads {
		var links uint64
		var owner psf.ID
		truncated := false
		err := s.forEachChainLink(nil, g, h, floor, false, nil, &st,
			func(cur uint64, _ record.View, _ uint64, kp record.KeyPointer) bool {
				if links == 0 {
					owner = kp.PSFID
				}
				links++
				if cur >= head {
					cs.InMemLinks++
				} else {
					cs.OnDeviceLinks++
				}
				if links >= uint64(opts.MaxLinksPerChain) {
					truncated = true
					return false
				}
				return true
			})
		if err != nil {
			return nil, err
		}
		if links == 0 {
			continue
		}
		cs.Chains++
		cs.Links += int64(links)
		if truncated {
			cs.TruncatedChains++
		}
		agg := perPSF[owner]
		if agg == nil {
			agg = &psfChainAgg{}
			perPSF[owner] = agg
		}
		agg.hist.Observe(links)
	}

	for id, agg := range perPSF {
		pc := introspect.PSFChains{
			PSFID:   id,
			Chains:  int(agg.hist.Count()),
			Links:   agg.hist.Sum(),
			MaxLen:  agg.hist.Max(),
			MeanLen: agg.hist.Mean(),
			Lengths: agg.hist.Buckets(),
		}
		if def, ok := s.registry.Lookup(id); ok {
			pc.Name = def.Name
		}
		cs.PerPSF = append(cs.PerPSF, pc)
	}
	sortPSFChains(cs.PerPSF)
	cs.ElapsedSeconds = time.Since(start).Seconds()
	s.lastChain.Store(cs)
	return cs, nil
}

type psfChainAgg struct{ hist introspect.PowHist }

func sortPSFChains(pcs []introspect.PSFChains) {
	for i := 1; i < len(pcs); i++ {
		for j := i; j > 0 && pcs[j].PSFID < pcs[j-1].PSFID; j-- {
			pcs[j], pcs[j-1] = pcs[j-1], pcs[j]
		}
	}
}

// LogSampleOptions bounds a log composition walk.
type LogSampleOptions struct {
	// From and To delimit the walked range; zero means the logical begin
	// (after truncation) and the flushed-or-tail boundary respectively.
	From, To uint64
	// MaxBytes caps the walked volume (default 64MB); the walk stops early
	// and marks the snapshot truncated when it would exceed the cap.
	MaxBytes uint64
}

// LogComposition walks the log's headers — including fillers and
// invalidated records, which scans never surface — and reports the live vs
// invalidated vs filler byte composition of the range. In-memory pages are
// read with atomic loads; on-device pages are read with epoch protection
// dropped, the same discipline visitRange uses.
func (s *Store) LogComposition(opts LogSampleOptions) (*introspect.LogSnapshot, error) {
	from, to := s.clampRange(opts.From, opts.To)
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 64 << 20
	}
	ls := &introspect.LogSnapshot{SampledAt: time.Now(), From: from, To: to}
	ls.Degraded, ls.DegradedCause = s.Degraded()
	if from >= to {
		return ls, nil
	}
	if to-from > opts.MaxBytes {
		to = from + opts.MaxBytes
		ls.Truncated = true
	}

	g := s.epoch.Acquire()
	defer g.Release()

	pageSize := s.log.PageSize()
	for addr := from; addr < to; {
		pageStart := addr &^ (pageSize - 1)
		pageEnd := pageStart + pageSize
		limit := to
		if pageEnd < limit {
			limit = pageEnd
		}
		g.Refresh()

		var words []uint64
		if addr >= s.log.HeadAddress() {
			words = s.log.PageWordsFrom(addr)
		} else {
			// Immutable on-device data: read without epoch protection so a
			// pinned safe epoch never stalls page-frame recycling.
			n := int(pageEnd-addr) / 8
			g.Unprotect()
			w, err := s.log.ReadWordsFromDevice(addr, n)
			g.Protect()
			if err != nil {
				return nil, fmt.Errorf("fishstore: log sample read at %d: %w", addr, err)
			}
			words = w
		}
		walkAllHeaders(words, addr, limit, ls)
		addr = pageEnd
	}
	ls.WalkedBytes = uint64(ls.LiveBytes + ls.InvalidBytes + ls.FillerBytes)
	return ls, nil
}

// walkAllHeaders tallies every header in words (first word at baseAddr) into
// ls, stopping at limit or the unwritten tail.
func walkAllHeaders(words []uint64, baseAddr, limit uint64, ls *introspect.LogSnapshot) {
	off := 0
	for off < len(words) {
		hw := atomic.LoadUint64(&words[off])
		h := record.UnpackHeader(hw)
		if h.SizeWords == 0 {
			return // unwritten tail region
		}
		addr := baseAddr + uint64(off)*8
		if addr >= limit || off+h.SizeWords > len(words) {
			return
		}
		bytes := int64(h.SizeWords) * 8
		switch {
		case h.Filler:
			ls.Fillers++
			ls.FillerBytes += bytes
		case h.Invalid || !h.Visible:
			ls.Records++
			ls.InvalidRecords++
			ls.InvalidBytes += bytes
		default:
			ls.Records++
			ls.LiveRecords++
			ls.LiveBytes += bytes
			if h.Indirect {
				ls.IndirectRecs++
			}
			ls.KeyPointers += int64(h.NumPtrs)
		}
		off += h.SizeWords
	}
}

// PSFStatus returns the PSF lifecycle view: the Fig 7 registry state, and
// every PSF ever registered with its safe register/deregister boundary
// addresses (the coverage intervals of on-demand indexing).
func (s *Store) PSFStatus() psf.RegistryStatus { return s.registry.Status() }

// CacheSnapshot is the read-path cache view served at /debug/fishstore/cache:
// the page cache over immutable on-device log pages. A disabled cache
// reports PageCacheEnabled=false with zeroed stats.
type CacheSnapshot struct {
	PageCache        pagecache.Stats `json:"page_cache"`
	PageCacheEnabled bool            `json:"page_cache_enabled"`

	// Summaries and HotChains are always zero. The mechanisms they counted
	// (per-page bloom summaries, the hot-chain cache) are gone; the fields
	// stay only because benchmark/layers.go reads them, and go when a
	// benchmark PR drops summaries.skipped_page_ratio and hotchain.hit_ratio.
	Summaries struct{ Probes, Skips int64 } `json:"-"`
	HotChains struct{ Hits, Misses int64 }  `json:"-"`
}

// CacheStats returns a point-in-time snapshot of the read-path cache.
func (s *Store) CacheStats() CacheSnapshot {
	var cs CacheSnapshot
	if s.pcache != nil {
		cs.PageCacheEnabled = true
		cs.PageCache = s.pcache.Stats()
	}
	return cs
}

// ScanDecisions returns the retained scan decisions, oldest first.
func (s *Store) ScanDecisions() introspect.ScanLog {
	if s.scanLog == nil {
		return introspect.ScanLog{}
	}
	return introspect.ScanLog{
		Capacity:  s.scanLog.Cap(),
		Total:     s.scanLog.Total(),
		Dropped:   s.scanLog.Dropped(),
		Decisions: s.scanLog.Snapshot(),
	}
}

// recordScanDecision captures one executed scan into the decision log:
// the segment plan split, the Φ cost-model inputs in force, and the
// observed work. Called from Scan's defer; one ring Put, no locks.
func (s *Store) recordScanDecision(id psf.ID, mode ScanMode, from, to uint64, st *ScanStats, elapsed time.Duration) {
	phi, profile := costModel(s.log)
	d := introspect.ScanDecision{
		Seq:                s.scanSeq.Add(1),
		Time:               time.Now(),
		Mode:               mode.String(),
		PSF:                id,
		From:               from,
		To:                 to,
		PhiBytes:           phi,
		BwSeqBytesPerSec:   profile.SeqBandwidth,
		RandLatencySeconds: profile.RandLatency.Seconds(),
		SyscallCostSeconds: profile.SyscallCost.Seconds(),
		Matched:            st.Matched,
		Visited:            st.Visited,
		IndexHops:          st.IndexHops,
		IOs:                st.IOs,
		ReadBytes:          st.ReadBytes,
		PrefetchHits:       st.PrefetchHits,
		PageCacheHits:      st.PageCacheHits,
		Stopped:            st.Stopped,
		ElapsedSeconds:     elapsed.Seconds(),
	}
	for _, seg := range st.Plan {
		d.Segments = append(d.Segments, introspect.ScanSegment{From: seg.From, To: seg.To, Indexed: seg.Indexed})
		if seg.Indexed {
			d.IndexedBytes += seg.To - seg.From
		} else {
			d.FullBytes += seg.To - seg.From
		}
	}
	if total := d.IndexedBytes + d.FullBytes; total > 0 {
		d.IndexedFraction = float64(d.IndexedBytes) / float64(total)
	}
	s.scanLog.Put(d)
}

// FlightEvents returns the flight recorder's retained trace events, oldest
// first (nil when the recorder is disabled).
func (s *Store) FlightEvents() []metrics.TraceEvent {
	if s.metrics.flight == nil {
		return nil
	}
	return s.metrics.flight.Events()
}

// DumpFlight writes the flight recorder's contents to w as JSON lines,
// oldest first. Safe to call from concurrent failure paths (dumps are
// serialized process-wide). No-op when the recorder is disabled.
func (s *Store) DumpFlight(w io.Writer) error {
	if s.metrics.flight == nil {
		return nil
	}
	return s.metrics.flight.DumpLocked(w)
}

// EpochInUse reports the store's live epoch guards (acquired and not yet
// released) and how many of them are currently pinning the safe epoch.
// Leak checks assert both return to zero once every session is closed and
// every scan — including cancelled ones — has returned.
func (s *Store) EpochInUse() (live, protected int) {
	return s.epoch.LiveGuards(), s.epoch.ProtectedSlots()
}
