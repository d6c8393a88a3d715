package fishstore

import (
	"errors"
	"io"
	"time"

	"fishstore/internal/metrics"
	"fishstore/internal/parser"
	"fishstore/internal/parser/pjson"
	"fishstore/internal/storage"
	"fishstore/internal/telemetry"
	"fishstore/internal/trace"
)

// Options configures a Store. The zero value plus defaults gives an
// in-memory (null device) store with the partial JSON parser — the
// configuration the paper's in-memory ingestion experiments use.
type Options struct {
	// Parser creates thread-local parser sessions for ingestion workers.
	// Defaults to the partial JSON parser (pjson). Use fulljson.New() for
	// the FishStore-RJ baseline or pcsv.New(header) for CSV data.
	Parser parser.Factory

	// Device persists log pages. nil means a discarding null device: the
	// log is bounded by the in-memory circular buffer and older pages
	// become unreadable (fine for ingestion benchmarks and streaming use).
	Device storage.Device

	// PageBits sets the log page size to 1<<PageBits bytes (default 20 =
	// 1MB).
	PageBits uint

	// MemPages sets the circular buffer size in pages (default 16; the
	// paper's default memory budget is 2GB).
	MemPages int

	// TableBuckets sets the hash table size in 64-byte buckets (default
	// 1<<16 = 4MB). Rounded up to a power of two.
	TableBuckets int

	// OverflowBuckets caps overflow buckets (default TableBuckets/4).
	OverflowBuckets int

	// BadCAS enables the naive invalidate-and-reallocate strategy on hash
	// chain CAS failures instead of Algorithm 1. Exists only to reproduce
	// the Fig 17 ablation; never enable it in real use.
	BadCAS bool

	// CollectPhaseStats turns on per-phase CPU timing (parse / PSF eval /
	// memcpy / index / others) used by the Fig 13 breakdown. Adds two
	// clock reads per phase per record.
	CollectPhaseStats bool

	// Metrics is the registry the store reports into. nil consults the
	// process-wide default (SetDefaultMetricsRegistry) and, when that too is
	// unset, disables metrics: every instrumented site degrades to a nil
	// check. Several stores may share one registry.
	Metrics *metrics.Registry

	// TraceSink, if set, receives structured control-plane events
	// (checkpoints, PSF state transitions, prefetch window changes, epoch
	// drains, hash table growth, slow operations). Requires Metrics.
	TraceSink metrics.TraceSink

	// SlowOpThreshold makes operations slower than it emit *.slow trace
	// events. Zero disables slow-operation tracing.
	SlowOpThreshold time.Duration

	// FlightRecorderSize is the capacity (in events) of the crash flight
	// recorder: a lock-free ring that retains the most recent trace events
	// and is dumped on VerifyLog corruption and on demand (DumpFlight,
	// /debug/fishstore/flight). 0 means the default (256); negative disables
	// the recorder. When enabled, the recorder becomes the registry's trace
	// sink and tees every event to Options.TraceSink.
	FlightRecorderSize int

	// FlightDumpWriter, if set, receives an automatic JSON-lines flight dump
	// whenever VerifyLog detects corruption.
	FlightDumpWriter io.Writer

	// ScanDecisionLog is the number of recent scan decisions retained for
	// /debug/fishstore/scan and fishstore-cli inspect: per-segment
	// index/full choices plus the cost-model inputs (Φ) each adaptive scan
	// used. 0 means the default (64); negative disables the decision log.
	ScanDecisionLog int

	// DisableRecordChecksums writes format-v0 records without the per-record
	// checksum trailer (8 bytes/record smaller, no CRC at flush). Readers
	// accept both formats regardless of this setting, so a store may be
	// reopened with either value; only newly ingested records are affected.
	// Leave false outside of benchmarks: without checksums a torn flush at
	// the log tail can survive recovery with a zeroed payload.
	DisableRecordChecksums bool

	// VerifyOnRead validates the checksum of every record fetched from the
	// device on the scan, chain-walk, and indirect-resolution paths. A record
	// that fails is quarantined: skipped (and its chain not followed), counted
	// in ScanStats.Quarantined and the fishstore_corrupt_records_total metric,
	// and logged to the flight recorder with its address — never surfaced to
	// the user. In-memory records are exempt (they are sealed only at flush).
	VerifyOnRead bool

	// IORetry, if set, wraps Device in storage.Retrying: transient read and
	// write errors (per the policy's Classify, default storage.IsTransient)
	// are retried with bounded exponential backoff and jitter. Each retry is
	// counted in fishstore_io_retries_total and traced.
	IORetry *storage.RetryPolicy

	// Tracer, if set, receives operation spans: a parent/child tree per
	// ingest batch, scan, checkpoint, recovery, page flush, and device I/O,
	// exportable as Chrome trace-event JSON (/debug/fishstore/spans,
	// fishstore-cli trace). nil consults the process-wide default
	// (SetDefaultTracer); when that too is unset, spans are disabled and
	// every instrumented site degrades to one atomic load. Root spans are
	// teed (as span.* trace events) into the metrics trace pipeline — the
	// flight recorder and TraceSink — so the crash timeline and the span
	// timeline stay on one stream.
	Tracer *trace.Tracer

	// PageCachePages bounds the read-through page cache over on-device log
	// pages: scans and chain walks fill it on cold reads and later reads of
	// the same page are served from memory. 0 means the default (64 pages);
	// negative disables the cache (every cold read is a device hit, the
	// pre-cache behaviour). Cached pages are invalidated by TruncateUntil.
	PageCachePages int

	// DisableTelemetry turns off the workload-attribution layer (per-op
	// latency sketches, PSF / property / tenant heavy hitters,
	// /debug/fishstore/workload). Telemetry is on by default — its hot-path
	// cost is a few atomic adds per batch — and is independent of Metrics:
	// the sketches work with a disabled registry too.
	DisableTelemetry bool

	// TenantLabel, if set, is consulted once per ingest batch and once per
	// scan to attribute that operation's records and bytes to a
	// caller/tenant heavy-hitter dimension (the Record Layer-style
	// multi-tenant accounting hook). It is called from the operation's own
	// goroutine and must be cheap and concurrency-safe.
	TenantLabel func() string

	// SLO, if set, starts a watchdog goroutine that evaluates the given
	// latency targets every SLO.Interval, publishes burn rates as
	// fishstore_slo_burn gauges, emits slo.burn trace events into the
	// flight recorder while an objective is burning, and folds the verdict
	// into /debug/fishstore/health. Requires telemetry (ignored when
	// DisableTelemetry is set).
	SLO *telemetry.SLO

	// ProfileLabels attaches runtime/pprof goroutine labels (operation,
	// phase, psf, mode) to the ingest, scan, and flush paths, so CPU
	// profiles attribute samples to the same taxonomy spans use. Scan
	// workers inherit their scan's labels. Adds a few runtime label swaps
	// per record on the ingest path; leave off unless profiling.
	ProfileLabels bool

	// Limits, if set, enables the store-level resource governor: ingest
	// batches count against MaxInFlightIngestBytes (over-limit callers block
	// up to MaxWait, then fail with ErrBusy), scans count against
	// MaxConcurrentScans, tenants can be given weighted shares of the ingest
	// budget, and — when the SLO watchdog reports a breach — scans submitted
	// with a negative ScanOptions.Priority are shed with ErrBusy. nil keeps
	// the historical unbounded behaviour. The admission fast path is a pair
	// of atomic adds; the governor allocates only when an operation actually
	// has to wait.
	Limits *Limits

	// Retention, if set, bounds the live log footprint and arms the
	// disk-full recovery path: an ENOSPC-class flush failure puts the store
	// into the managed ErrLogFull state (instead of sticky degraded mode),
	// and RecoverLogSpace — invoked automatically on the next ingest when
	// AutoRecover is set — truncates the oldest log pages down to
	// MaxLiveBytes, reclaims the device space, re-drives the failed flushes,
	// and resumes ingestion.
	Retention *Retention
}

// Limits configures the resource governor; see Options.Limits. The zero
// value of any field means "unlimited" for that dimension.
type Limits struct {
	// MaxInFlightIngestBytes caps the total raw bytes of ingest batches
	// admitted and not yet returned. A batch that would exceed the cap waits
	// up to MaxWait for capacity, then fails with ErrBusy.
	MaxInFlightIngestBytes int64

	// MaxConcurrentScans caps concurrently running scans (Lookup counts as a
	// scan). Over-limit scans wait up to MaxWait, then fail with ErrBusy.
	MaxConcurrentScans int64

	// MaxWait bounds how long an over-limit operation blocks for capacity
	// before failing with ErrBusy. Zero means fail fast. The operation's
	// context, when it expires sooner, wins.
	MaxWait time.Duration

	// TenantShares divides MaxInFlightIngestBytes between tenants (keyed by
	// the value Options.TenantLabel returns): each named tenant may hold at
	// most share/totalShares of the ingest-byte budget. Tenants not in the
	// map (and all traffic when TenantLabel is unset) are limited only by
	// the global cap. The map is read-only after Open.
	TenantShares map[string]int64

	// ShedScansOnBreach, when true, rejects scans whose ScanOptions.Priority
	// is negative with ErrBusy while the SLO watchdog (Options.SLO) reports
	// a breach — load-shedding the work the caller marked discardable first.
	ShedScansOnBreach bool
}

// Retention configures retention-driven space reclamation; see
// Options.Retention.
type Retention struct {
	// MaxLiveBytes is the target live log footprint (tail minus truncation
	// point). RecoverLogSpace truncates whole pages from the oldest end of
	// the log until the footprint is at most this. 0 disables
	// retention-driven truncation (RecoverLogSpace then only reclaims what
	// the caller already truncated manually).
	MaxLiveBytes uint64

	// AutoRecover makes the next ingest after an ErrLogFull transition run
	// RecoverLogSpace automatically, so a capped device oscillates between
	// filling and reclaiming instead of failing until an operator steps in.
	AutoRecover bool
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Parser == nil {
		out.Parser = pjson.New()
	}
	if out.PageBits == 0 {
		out.PageBits = 20
	}
	if out.PageBits < 12 || out.PageBits > 30 {
		return out, errors.New("fishstore: PageBits out of range [12,30]")
	}
	if out.MemPages == 0 {
		out.MemPages = 16
	}
	if out.MemPages < 2 {
		return out, errors.New("fishstore: MemPages must be >= 2")
	}
	if out.TableBuckets == 0 {
		out.TableBuckets = 1 << 16
	}
	if out.OverflowBuckets == 0 {
		out.OverflowBuckets = out.TableBuckets / 4
		if out.OverflowBuckets < 64 {
			out.OverflowBuckets = 64
		}
	}
	if out.FlightRecorderSize == 0 {
		out.FlightRecorderSize = 256
	}
	if out.ScanDecisionLog == 0 {
		out.ScanDecisionLog = 64
	}
	if out.PageCachePages == 0 {
		out.PageCachePages = 64
	}
	if out.Limits != nil {
		if out.Limits.MaxInFlightIngestBytes < 0 || out.Limits.MaxConcurrentScans < 0 {
			return out, errors.New("fishstore: Limits caps must be >= 0")
		}
		for tenant, share := range out.Limits.TenantShares {
			if share <= 0 {
				return out, errors.New("fishstore: TenantShares[" + tenant + "] must be > 0")
			}
		}
		if len(out.Limits.TenantShares) > 0 && out.Limits.MaxInFlightIngestBytes == 0 {
			return out, errors.New("fishstore: TenantShares requires MaxInFlightIngestBytes")
		}
	}
	return out, nil
}
