package fishstore

import (
	"sync/atomic"
	"time"

	"fishstore/internal/hlog"
	"fishstore/internal/introspect"
	"fishstore/internal/metrics"
	"fishstore/internal/telemetry"
	"fishstore/internal/trace"
)

// defaultRegistry is consulted by Open when Options.Metrics is nil. It lets
// process-wide tooling (fishbench -metrics-addr) aggregate every store opened
// by experiment code that doesn't plumb a registry through its own options.
var defaultRegistry atomic.Pointer[metrics.Registry]

// SetDefaultMetricsRegistry installs a registry used by every subsequently
// opened Store whose Options.Metrics is nil. Pass nil to restore the default
// (metrics disabled).
func SetDefaultMetricsRegistry(r *metrics.Registry) {
	if r == nil {
		defaultRegistry.Store(nil)
		return
	}
	defaultRegistry.Store(r)
}

// phaseNames maps PhaseStats fields to the "phase" label of
// fishstore_ingest_phase_seconds, in Fig 13 order.
var phaseNames = [5]string{"parse", "psf_eval", "memcpy", "index", "others"}

// phaseAttrs names the same phases as integer nanosecond attributes of a
// sampled ingest.batch span.
var phaseAttrs = [5]string{"parse_ns", "psf_eval_ns", "memcpy_ns", "index_ns", "others_ns"}

// flightEvents is the crash flight recorder's capacity: the most recent
// records of the store's event stream, dumped on corruption, degradation
// and demand.
const flightEvents = 256

// storeMetrics holds every metric handle a Store touches on its hot paths,
// plus the store's event stream. The handles are nil (no-ops) when metrics
// are disabled, so instrumented code never branches on configuration; the
// event stream never depends on the registry.
type storeMetrics struct {
	reg *metrics.Registry

	// Ingestion (session.go).
	ingestRecords *metrics.Counter
	ingestBytes   *metrics.Counter
	ingestProps   *metrics.Counter
	parseErrors   *metrics.Counter
	reallocations *metrics.Counter
	recordBytes   *metrics.Histogram
	phaseSeconds  [5]*metrics.Histogram // indexed like phaseNames

	// Subset retrieval (scan.go / prefetch.go).
	scans            *metrics.Counter
	scanSeconds      *metrics.Histogram
	scanMatched      *metrics.Counter
	scanVisited      *metrics.Counter
	scanIndexHops    *metrics.Counter
	scanFullBytes    *metrics.Counter
	scanIOReads      *metrics.Counter
	scanIOReadBytes  *metrics.Counter
	scanSegIndexed   *metrics.Counter
	scanSegFull      *metrics.Counter
	prefetchWindow   *metrics.Gauge
	prefetchGrows    *metrics.Counter
	prefetchCollapse *metrics.Counter
	prefetchHits     *metrics.Counter
	prefetchMisses   *metrics.Counter

	// Durability (checkpoint.go).
	checkpoints      *metrics.Counter
	checkpointBytes  *metrics.Histogram
	recoverySeconds  *metrics.Histogram
	recoveryReplayed *metrics.Counter

	// Device I/O (internal/storage wrapper).
	deviceReadSeconds  *metrics.Histogram
	deviceWriteSeconds *metrics.Histogram
	deviceReadBytes    *metrics.Counter
	deviceWriteBytes   *metrics.Counter

	// Integrity (checksums, degradation).
	corruptRecords *metrics.Counter

	// Overload protection (governor.go, logfull.go, subscribe.go).
	admissionWaits    *metrics.Counter
	admissionRejects  *metrics.Counter
	subDropped        *metrics.Counter
	logFullGauge      *metrics.Gauge
	logFullRecoveries *metrics.Counter

	// Internals (epoch, hash table).
	epochBumps     *metrics.Counter
	epochActions   *metrics.Counter
	htEntries      *metrics.Counter
	htOverflowAdds *metrics.Counter

	// The event stream: control-plane events and finished root spans, one
	// record type. flight is the crash flight recorder (the stream's last
	// flightEvents records); sink is Options.TraceSink.
	flight *introspect.Ring[trace.SpanData]
	sink   func(trace.SpanData)
}

// newStoreMetrics builds the event stream and registers (or re-resolves,
// when the registry is shared) every metric family, exporting tele's
// per-operation histograms by reference. With a disabled registry all
// handles stay nil.
func newStoreMetrics(reg *metrics.Registry, tele *telemetry.Collector, sink func(trace.SpanData)) *storeMetrics {
	m := &storeMetrics{reg: reg, flight: introspect.NewRing[trace.SpanData](flightEvents), sink: sink}
	if !reg.Enabled() {
		return m
	}
	m.ingestRecords = reg.Counter("fishstore_ingest_records_total",
		"Records ingested across all sessions.")
	m.ingestBytes = reg.Counter("fishstore_ingest_bytes_total",
		"Raw payload bytes ingested.")
	m.ingestProps = reg.Counter("fishstore_ingest_properties_total",
		"Key pointers (indexed properties) written during ingestion.")
	m.parseErrors = reg.Counter("fishstore_ingest_parse_errors_total",
		"Records stored without index entries due to parse failure.")
	m.reallocations = reg.Counter("fishstore_ingest_reallocations_total",
		"Records reallocated after a hash-chain CAS failure (BadCAS mode).")
	reg.AttachHistogram(tele.Op(telemetry.OpIngestBatch), "fishstore_ingest_batch_seconds",
		"Wall-clock latency of one Ingest batch.", metrics.ScaleNanosToSeconds)
	m.recordBytes = reg.Histogram("fishstore_ingest_record_bytes",
		"Raw payload size per ingested record.", metrics.ScaleNone)
	for i, name := range phaseNames {
		m.phaseSeconds[i] = reg.Histogram("fishstore_ingest_phase_seconds",
			"Per-phase ingestion CPU time (Fig 13 breakdown); populated when "+
				"Options.CollectPhaseStats is on, observed at batch granularity.",
			metrics.ScaleNanosToSeconds, metrics.L("phase", name))
	}

	m.scans = reg.Counter("fishstore_scans_total", "Subset retrieval scans started.")
	m.scanSeconds = reg.Histogram("fishstore_scan_seconds",
		"Wall-clock latency of one Scan call.", metrics.ScaleNanosToSeconds)
	reg.AttachHistogram(tele.Op(telemetry.OpIndexScan), "fishstore_scan_segment_seconds",
		"Wall-clock latency of one scan plan segment, by kind (indexed chain "+
			"walk vs full sweep).", metrics.ScaleNanosToSeconds, metrics.L("kind", "index"))
	reg.AttachHistogram(tele.Op(telemetry.OpFullScan), "fishstore_scan_segment_seconds", "",
		metrics.ScaleNanosToSeconds, metrics.L("kind", "full"))
	m.scanMatched = reg.Counter("fishstore_scan_matched_records_total",
		"Records delivered to scan callbacks.")
	m.scanVisited = reg.Counter("fishstore_scan_visited_records_total",
		"Records examined by scans (index hops + full-scan records).")
	m.scanIndexHops = reg.Counter("fishstore_scan_index_hops_total",
		"Hash-chain pointer traversals during index scans.")
	m.scanFullBytes = reg.Counter("fishstore_scan_full_bytes_total",
		"Bytes swept by full-scan segments (adaptive scan fallback).")
	m.scanIOReads = reg.Counter("fishstore_scan_io_reads_total",
		"Device read operations issued by scans.")
	m.scanIOReadBytes = reg.Counter("fishstore_scan_io_read_bytes_total",
		"Bytes read from the device by scans.")
	m.scanSegIndexed = reg.Counter("fishstore_scan_segments_total",
		"Scan plan segments by kind (indexed chain walk vs full sweep).",
		metrics.L("kind", "indexed"))
	m.scanSegFull = reg.Counter("fishstore_scan_segments_total", "",
		metrics.L("kind", "full"))
	m.prefetchWindow = reg.Gauge("fishstore_prefetch_window_bytes",
		"Most recent adaptive prefetch speculation window (0 = collapsed).")
	m.prefetchGrows = reg.Counter("fishstore_prefetch_grows_total",
		"Adaptive prefetch window growth events (locality below threshold).")
	m.prefetchCollapse = reg.Counter("fishstore_prefetch_collapses_total",
		"Adaptive prefetch window collapses (speculation wasted).")
	m.prefetchHits = reg.Counter("fishstore_prefetch_hits_total",
		"Chain hops served from the speculation buffer or the page cache (IOs saved).")
	m.prefetchMisses = reg.Counter("fishstore_prefetch_misses_total",
		"Chain hops that needed a device read.")

	m.checkpoints = reg.Counter("fishstore_checkpoints_total", "Checkpoints taken.")
	reg.AttachHistogram(tele.Op(telemetry.OpCheckpoint), "fishstore_checkpoint_seconds",
		"Wall-clock checkpoint duration.", metrics.ScaleNanosToSeconds)
	m.checkpointBytes = reg.Histogram("fishstore_checkpoint_bytes",
		"Bytes written per checkpoint (hash table + metadata).", metrics.ScaleNone)
	m.recoverySeconds = reg.Histogram("fishstore_recovery_seconds",
		"Wall-clock recovery duration.", metrics.ScaleNanosToSeconds)
	m.recoveryReplayed = reg.Counter("fishstore_recovery_replayed_records_total",
		"Records re-indexed by suffix replay during recovery.")

	m.deviceReadSeconds = reg.Histogram("fishstore_device_read_seconds",
		"Device read latency.", metrics.ScaleNanosToSeconds)
	m.deviceWriteSeconds = reg.Histogram("fishstore_device_write_seconds",
		"Device write latency.", metrics.ScaleNanosToSeconds)
	m.deviceReadBytes = reg.Counter("fishstore_device_read_bytes_total",
		"Bytes read from the storage device.")
	m.deviceWriteBytes = reg.Counter("fishstore_device_write_bytes_total",
		"Bytes written to the storage device.")

	m.corruptRecords = reg.Counter("fishstore_corrupt_records_total",
		"Records quarantined by VerifyOnRead: fetched from the device with a "+
			"failing checksum and skipped instead of surfaced.")

	m.admissionWaits = reg.Counter("fishstore_admission_waits_total",
		"Operations that blocked waiting for governor capacity (Options.Limits).")
	m.admissionRejects = reg.Counter("fishstore_admission_rejects_total",
		"Operations refused with ErrBusy after the admission wait expired.")
	m.subDropped = reg.Counter("fishstore_subscription_dropped_total",
		"Records dropped by DropOldest subscriptions whose buffer was full.")
	m.logFullGauge = reg.Gauge("fishstore_log_full",
		"1 while the store refuses ingestion because the device is out of "+
			"space (the managed ErrLogFull state).")
	m.logFullRecoveries = reg.Counter("fishstore_log_full_recoveries_total",
		"Successful RecoverLogSpace runs: reclaim + flush-retry + resume.")

	m.epochBumps = reg.Counter("fishstore_epoch_bumps_total",
		"Epoch bumps (version increments).")
	m.epochActions = reg.Counter("fishstore_epoch_actions_total",
		"Deferred epoch actions executed after their epoch became safe.")
	m.htEntries = reg.Counter("fishstore_hashtable_entries_created_total",
		"Hash table entries created (distinct properties seen).")
	m.htOverflowAdds = reg.Counter("fishstore_hashtable_overflow_appends_total",
		"Overflow buckets appended to full main buckets.")
	return m
}

// event appends one control-plane event — a zero-duration root record — to
// the store's event stream.
func (m *storeMetrics) event(name string, attrs ...trace.Attr) {
	m.record(trace.Event(name, attrs...))
}

// record appends d to the flight recorder and hands it to the TraceSink.
func (m *storeMetrics) record(d trace.SpanData) {
	m.flight.Put(d)
	if m.sink != nil {
		m.sink(d)
	}
}

// ObserveRead implements storage.IOObserver.
func (m *storeMetrics) ObserveRead(n int, d time.Duration) {
	m.deviceReadSeconds.Observe(int64(d))
	m.deviceReadBytes.Add(int64(n))
}

// ObserveWrite implements storage.IOObserver.
func (m *storeMetrics) ObserveWrite(n int, d time.Duration) {
	m.deviceWriteSeconds.Observe(int64(d))
	m.deviceWriteBytes.Add(int64(n))
}

// registerGaugeFuncs attaches snapshot-time gauges reading live store state.
// When several stores share a registry, the first store attached provides the
// view (GaugeFunc is first-wins).
func (s *Store) registerGaugeFuncs() {
	reg := s.metrics.reg
	if !reg.Enabled() {
		return
	}
	reg.GaugeFunc("fishstore_log_tail_address",
		"Hybrid log tail address.", func() float64 { return float64(s.log.TailAddress()) })
	reg.GaugeFunc("fishstore_log_head_address",
		"In-memory boundary: addresses >= head are in the circular buffer.",
		func() float64 { return float64(s.log.HeadAddress()) })
	reg.GaugeFunc("fishstore_log_flushed_until_address",
		"Durable boundary of the hybrid log.",
		func() float64 { return float64(s.log.FlushedUntil()) })
	reg.GaugeFunc("fishstore_log_truncated_until_address",
		"Lowest address still retained after truncation.",
		func() float64 { return float64(s.logBegin()) })
	reg.GaugeFunc("fishstore_log_live_bytes",
		"Live log footprint: tail minus truncation point.",
		func() float64 { live, _ := s.liveLogBytes(); return float64(live) })
	reg.GaugeFunc("fishstore_log_appended_bytes",
		"Total bytes ever appended to the log (ignores truncation).",
		func() float64 { return float64(s.log.TailAddress() - hlog.BeginAddress) })
	reg.GaugeFunc("fishstore_epoch_current",
		"Current epoch number.", func() float64 { return float64(s.epoch.Current()) })
	reg.GaugeFunc("fishstore_epoch_safe",
		"Maximal safe-to-reclaim epoch.", func() float64 { return float64(s.epoch.SafeEpoch()) })
	reg.GaugeFunc("fishstore_epoch_live_guards",
		"Epoch guards acquired and not yet released; nonzero with every session closed and no scan running is a leak.",
		func() float64 { live, _ := s.epochInUse(); return float64(live) })
	reg.GaugeFunc("fishstore_epoch_protected_guards",
		"Epoch guards currently pinning the safe epoch.",
		func() float64 { _, prot := s.epochInUse(); return float64(prot) })
	reg.GaugeFunc("fishstore_hashtable_buckets",
		"Main hash table buckets.", func() float64 { return float64(s.table.NumBuckets()) })
	reg.GaugeFunc("fishstore_hashtable_used_entries",
		"Occupied hash table entries.", func() float64 { return float64(s.table.Stats().UsedEntries) })
	reg.GaugeFunc("fishstore_hashtable_overflow_buckets",
		"Allocated overflow buckets.", func() float64 { return float64(s.table.Stats().OverflowBuckets) })
	reg.GaugeFunc("fishstore_psf_active",
		"Currently registered (active) PSFs.",
		func() float64 { return float64(len(s.registry.CurrentMeta().PSFs)) })
	reg.GaugeFunc("fishstore_degraded",
		"1 once a permanent I/O failure has degraded the store to read-only.",
		func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})

	if s.gov != nil {
		reg.GaugeFunc("fishstore_admission_inflight_ingest_bytes",
			"Raw ingest-batch bytes admitted and not yet returned.",
			func() float64 { return float64(s.gov.inflightBytes.Load()) })
		reg.GaugeFunc("fishstore_admission_active_scans",
			"Scans currently holding a governor slot.",
			func() float64 { return float64(s.gov.activeScans.Load()) })
	}

	// Introspection gauges: live occupancy detail, cost-model inputs, and
	// the freshness of the last chain sample.
	reg.GaugeFunc("fishstore_hashtable_load_factor",
		"Used entries over main-bucket slot capacity (tentative excluded).",
		func() float64 {
			oc := s.table.Occupancy()
			slots := oc.Buckets * 7
			if slots == 0 {
				return 0
			}
			return float64(oc.UsedEntries) / float64(slots)
		})
	reg.GaugeFunc("fishstore_hashtable_tentative_entries",
		"Entries mid two-phase insert at snapshot time.",
		func() float64 { return float64(s.table.Occupancy().TentativeEntries) })
	reg.GaugeFunc("fishstore_costmodel_phi_bytes",
		"Adaptive prefetch threshold Φ = (c_syscall + lat_rand)·bw_seq (§7.2).",
		func() float64 { phi, _ := costModel(s.log); return float64(phi) })
	reg.GaugeFunc("fishstore_costmodel_bw_seq_bytes_per_sec",
		"Sequential bandwidth the cost model assumes for the device.",
		func() float64 { _, p := costModel(s.log); return p.SeqBandwidth })
	reg.GaugeFunc("fishstore_costmodel_lat_rand_seconds",
		"Random-access latency the cost model assumes for the device.",
		func() float64 { _, p := costModel(s.log); return p.RandLatency.Seconds() })
	reg.GaugeFunc("fishstore_chain_sample_age_seconds",
		"Seconds since the last chain sample (-1 = never sampled).",
		func() float64 {
			cs := s.lastChain.Load()
			if cs == nil {
				return -1
			}
			return time.Since(cs.SampledAt).Seconds()
		})
	reg.GaugeFunc("fishstore_chain_sampled_chains",
		"Chains walked by the last chain sample.",
		func() float64 {
			if cs := s.lastChain.Load(); cs != nil {
				return float64(cs.Chains)
			}
			return 0
		})
	reg.GaugeFunc("fishstore_chain_sampled_links",
		"Chain links traversed by the last chain sample.",
		func() float64 {
			if cs := s.lastChain.Load(); cs != nil {
				return float64(cs.Links)
			}
			return 0
		})

	// The read-through page cache.
	if s.pcache != nil {
		reg.GaugeFunc("fishstore_pagecache_pages",
			"On-device log pages currently held by the read-through page cache.",
			func() float64 { return float64(s.pcache.Stats().Pages) })
		reg.GaugeFunc("fishstore_pagecache_hits_total",
			"Page cache lookups served without a device read.",
			func() float64 { return float64(s.pcache.Stats().Hits) })
		reg.GaugeFunc("fishstore_pagecache_misses_total",
			"Page cache lookups that loaded the page from the device.",
			func() float64 { return float64(s.pcache.Stats().Misses) })
		reg.GaugeFunc("fishstore_pagecache_evictions_total",
			"Pages evicted by the CLOCK policy.",
			func() float64 { return float64(s.pcache.Stats().Evictions) })
		reg.GaugeFunc("fishstore_pagecache_invalidated_total",
			"Pages dropped by truncation-driven invalidation.",
			func() float64 { return float64(s.pcache.Stats().Invalidated) })
	}
}

// Metrics returns a point-in-time snapshot of every metric family the store's
// registry holds. With metrics disabled the snapshot is empty.
func (s *Store) Metrics() metrics.Snapshot { return s.metrics.reg.Snapshot() }
