package fishstore

import (
	"errors"
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
	// paper's default memory budget is 2GB). A page frame is allocated when
	// a page first uses it.
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
	// memcpy / index / others) used by the Fig 13 breakdown, read back
	// through Session.Phases and fishstore_ingest_phase_seconds. Adds one
	// clock read per phase per record, plus one per record.
	CollectPhaseStats bool

	// Metrics is the registry the store reports into. nil consults the
	// process-wide default (SetDefaultMetricsRegistry) and, when that too is
	// unset, disables metrics: every instrumented site degrades to a nil
	// check. Several stores may share one registry.
	Metrics *metrics.Registry

	// TraceSink, if set, receives the store's event stream as it happens:
	// control-plane events (checkpoints, PSF state transitions, page
	// flushes, prefetch window changes, epoch drains, hash table growth,
	// slow operations) and finished root spans, all as trace.SpanData — an
	// event is a zero-duration root. trace.JSONLines(w) writes them as JSON
	// lines. Works with or without Metrics. It is called synchronously on
	// the emitting goroutine and must be cheap and concurrency-safe.
	TraceSink func(trace.SpanData)

	// SlowOpThreshold makes ingest batches and scans at least this slow emit
	// ingest.slow_batch / scan.slow events. Zero disables them.
	SlowOpThreshold time.Duration

	// VerifyOnRead validates the checksum of every record fetched from the
	// device on the scan, chain-walk, and indirect-resolution paths. A record
	// that fails is quarantined: skipped (and its chain not followed), counted
	// in ScanStats.Quarantined and the fishstore_corrupt_records_total metric,
	// and logged to the flight recorder with its address — never surfaced to
	// the user. In-memory records are exempt (they are sealed only at flush).
	VerifyOnRead bool

	// Tracer, if set, receives operation spans: a parent/child tree per
	// ingest batch, scan, checkpoint, recovery, page flush, and device I/O,
	// exportable as Chrome trace-event JSON (/debug/fishstore/spans,
	// fishstore-cli trace). nil consults the process-wide default
	// (SetDefaultTracer); when that too is unset, spans are disabled and
	// every instrumented site degrades to one atomic load. Finished root
	// spans join the event stream — the flight recorder and TraceSink — so
	// the crash timeline and the span timeline are one stream.
	Tracer *trace.Tracer

	// PageCachePages bounds the read-through page cache over on-device log
	// pages: full scans fill it on cold reads, chain walks fill only free
	// frames, and later reads of the same page are served from memory. 0
	// means the default (64 pages);
	// negative disables the cache (every cold read is a device hit, the
	// pre-cache behaviour). Cached pages are invalidated by TruncateUntil.
	PageCachePages int

	// SLO, if set, starts a watchdog goroutine that evaluates the given
	// latency targets every SLO.Interval, publishes burn rates as
	// fishstore_slo_burn gauges, emits slo.burn trace events into the
	// flight recorder while an objective is burning, and folds the verdict
	// into /debug/fishstore/health.
	SLO *telemetry.SLO

	// disableRecordChecksums writes format-v0 records without the per-record
	// checksum trailer. Readers accept both formats, so tests set it to
	// produce a v0 log and prove it recovers under the sealing default.
	disableRecordChecksums bool
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
	if out.PageCachePages == 0 {
		out.PageCachePages = 64
	}
	return out, nil
}
