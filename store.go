// Package fishstore is a from-scratch Go implementation of FishStore (Xie,
// Chandramouli, Li, Kossmann — SIGMOD 2019): a concurrent, latch-free
// storage layer for flexible-schema data that combines fast partial parsing
// with a hash-based primary subset index over dynamically registered
// predicated subset functions (PSFs).
//
// A Store ingests raw records (JSON, CSV, or anything a parser.Factory
// understands) into an append-only hybrid log. Applications register PSFs —
// field projections, predicates, range buckets, or custom functions — and
// FishStore threads every matching record onto a per-(PSF, value) hash
// chain collocated with the data. Subset retrieval combines index scans
// (with adaptive prefetching on storage) and full scans, guided by the safe
// registration boundaries of on-demand indexing.
//
// Basic usage:
//
//	store, _ := fishstore.Open(fishstore.Options{})
//	id, _, _ := store.RegisterPSF(psf.Projection("repo.name"))
//	sess := store.NewSession()
//	sess.Ingest(batchOfJSONRecords)
//	sess.Close()
//	store.Scan(fishstore.PropertyString(id, "spark"), fishstore.ScanOptions{},
//	    func(r fishstore.Record) bool { use(r.Payload); return true })
//
// A scan lends each record's payload to its callback: the bytes belong to
// the store (its in-memory log, page cache or read buffers) and are valid
// only until the callback returns, so a callback that keeps them copies them
// (bytes.Clone) and none writes to them.
package fishstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fishstore/internal/epoch"
	"fishstore/internal/expr"
	"fishstore/internal/hashtable"
	"fishstore/internal/hlog"
	"fishstore/internal/introspect"
	"fishstore/internal/metrics"
	"fishstore/internal/pagecache"
	"fishstore/internal/parser"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
	"fishstore/internal/telemetry"
	"fishstore/internal/trace"
)

// scanDecisionLog is how many recent scan decisions /debug/fishstore/scan
// and fishstore-cli inspect retain.
const scanDecisionLog = 64

// Store is a FishStore instance. All methods are safe for concurrent use;
// ingestion goes through per-worker Sessions.
type Store struct {
	opts     Options
	epoch    *epoch.Manager
	log      *hlog.Log
	table    *hashtable.Table
	registry *psf.Registry
	pf       parser.Factory
	metrics  *storeMetrics

	// tracer is the span layer (nil = tracing off).
	tracer *trace.Tracer

	// pcache is the read-through cache of immutable on-device log pages
	// (nil when disabled).
	pcache *pagecache.Cache

	// tele is the workload-attribution collector: per-operation latency
	// histograms (exported by the metrics registry as the store's own) plus
	// ingested-PSF and queried-property heavy hitters. watchdog evaluates Options.SLO
	// targets against it (nil when no SLO is configured).
	tele     *telemetry.Collector
	watchdog *telemetry.Watchdog

	subs subscriptions

	ingestedRecords atomic.Int64
	ingestedBytes   atomic.Int64
	indexedProps    atomic.Int64
	invalidated     atomic.Int64 // records abandoned by badCAS reallocation or a stale PSF meta
	truncatedUntil  atomic.Uint64

	// scanLog retains the last scanDecisionLog scan decisions (Φ inputs,
	// segment split, observed work) for /debug/fishstore/scan.
	scanLog *introspect.Ring[introspect.ScanDecision]
	scanSeq atomic.Uint64

	// lastChain publishes the most recent chain sample (sampleChains).
	lastChain atomic.Pointer[introspect.ChainSnapshot]

	// ckptMu is the checkpoint barrier: ingestion batches hold it shared,
	// Checkpoint holds it exclusively while taking its cut.
	ckptMu sync.RWMutex

	// degraded flips (once, sticky) when a permanent write/sync failure
	// proves the device can no longer persist the log. The store then serves
	// reads only: Ingest/Checkpoint/Flush return ErrDegraded.
	degraded      atomic.Bool
	degradedCause atomic.Pointer[string]

	mu     sync.Mutex
	closed bool
}

// newStore builds every component of a store from o but its log: the
// observability layer — workload collector, metrics registry (explicit
// option, process default, or disabled), event stream, scan decision log,
// tracer — with o.Device wrapped for metrics and spans, the page cache,
// an empty PSF registry, and table, instrumented before any insert. Open
// and Recover add the log; it must be built on s.opts.Device.
func newStore(o Options, table *hashtable.Table) *Store {
	reg := o.Metrics
	if reg == nil {
		reg = defaultRegistry.Load()
	}
	if reg == nil {
		reg = metrics.NewDisabled()
	}
	tele := telemetry.New()
	m := newStoreMetrics(reg, tele, o.TraceSink)
	// One wrapper times each device I/O for the metrics and, when a tracer
	// is set, emits its span; storage.Unwrap reaches the caller's device in
	// one step.
	tr := resolveTracer(&o)
	if reg.Enabled() || tr != nil {
		o.Device = storage.NewInstrumented(o.Device, m, tr)
	}
	s := &Store{
		opts:    o,
		epoch:   epoch.New(),
		pf:      o.Parser,
		metrics: m,
		tele:    tele,
		tracer:  tr,
		scanLog: introspect.NewRing[introspect.ScanDecision](scanDecisionLog),
	}
	if o.PageCachePages > 0 {
		s.pcache = pagecache.New(o.PageCachePages, 1<<(o.PageBits-3))
	}
	// The registry reads the tail only when a PSF is registered, which
	// happens after the log is built.
	s.registry = psf.NewRegistry(s.epoch, s.TailAddress)
	table.Instrument(m.htEntries, m.htOverflowAdds, func(overflowIdx int) {
		m.event("hashtable.grow", trace.Int("overflow_buckets", int64(overflowIdx)))
	})
	s.table = table
	return s
}

// Open creates a store.
func Open(opts Options) (*Store, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// The store is built before its log so the flush hook can flip it into
	// degraded mode; flushes only start once ingestion does, after Open
	// returns with s.log assigned.
	s := newStore(o, hashtable.New(o.TableBuckets, max(o.TableBuckets/4, 64)))
	log, err := hlog.New(s.logConfig())
	if err != nil {
		return nil, err
	}
	s.log = log
	s.wireObservability()
	return s, nil
}

// logConfig is the hybrid log's configuration for this store.
func (s *Store) logConfig() hlog.Config {
	return hlog.Config{
		PageBits: s.opts.PageBits,
		MemPages: s.opts.MemPages,
		Device:   s.opts.Device,
		Epoch:    s.epoch,
		OnFlush:  s.flushHook(),
		Tracer:   s.tracer,
	}
}

// flushHook returns the hlog OnFlush hook: a trace event per completed page
// flush (giving the flight recorder a durability timeline leading up to a
// crash), and — on a flush failure — the transition into degraded read-only
// mode. The device is fail-stop (Appendix E): a failed background flush,
// out of space or otherwise, means it refused the write for good, so the
// store stops pretending it can persist instead of surfacing the sticky
// error at the next page boundary.
func (s *Store) flushHook() func(page uint64, err error) {
	return func(page uint64, err error) {
		if err != nil {
			s.metrics.event("hlog.flush", trace.Uint("page", page), trace.Str("error", err.Error()))
			// A background flush has no caller to report to: the next
			// write reports ErrDegraded.
			_ = s.enterDegraded(fmt.Errorf("page %d flush: %w", page, err))
			return
		}
		s.metrics.event("hlog.flush", trace.Uint("page", page))
	}
}

// ErrDegraded is returned by Ingest, Checkpoint, Flush and Close once the
// store has entered degraded read-only mode after a permanent write or sync
// failure. Reads, scans, and verification keep working; the only way out is
// to fix the device and reopen the store.
var ErrDegraded = errors.New("fishstore: store degraded to read-only after permanent I/O failure")

// enterDegraded flips the store into degraded read-only mode (once; the
// first cause wins and is retained for Stats and introspection) and returns
// the error the failed call reports: ErrDegraded wrapping cause, so the
// first failure already matches ErrDegraded and still names the device's
// error.
func (s *Store) enterDegraded(cause error) error {
	if s.degraded.CompareAndSwap(false, true) {
		msg := cause.Error()
		s.degradedCause.Store(&msg)
		s.metrics.event("store.degraded", trace.Str("cause", msg))
	}
	return fmt.Errorf("%w: %w", ErrDegraded, cause)
}

// degradation reports whether the store is degraded and, if so, the cause.
func (s *Store) degradation() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	if c := s.degradedCause.Load(); c != nil {
		return true, *c
	}
	return true, ""
}

// wireObservability attaches counters and event hooks to the store's
// internal subsystems, feeds finished root spans into the event stream,
// registers the snapshot-time gauges and debug endpoints, and starts the
// SLO watchdog. Hooks are installed before any concurrent use of the
// subsystems (Open/Recover return the store only afterwards), and with or
// without a metrics registry: the event stream is the store's own.
func (s *Store) wireObservability() {
	m := s.metrics
	s.epoch.Instrument(m.epochBumps, m.epochActions, func(ran int) {
		m.event("epoch.drain", trace.Int("actions", int64(ran)), trace.Uint("safe", s.epoch.SafeEpoch()))
	})
	s.registry.SetTrace(func(state string, version uint64) {
		m.event("psf."+state, trace.Uint("version", version))
	})
	// Finished root spans join the stream as they are; their children stay
	// in the tracer's ring. When several stores share one tracer, the last
	// store opened receives them.
	s.tracer.SetOnFinish(func(d trace.SpanData) {
		if d.Root() {
			m.record(d)
		}
	})
	s.registerGaugeFuncs()
	s.registerIntrospection()
	s.wireWorkload()
}

// Close flushes and closes the store. All sessions must be closed first. On
// a degraded store it returns ErrDegraded, wrapping the device's error when
// the final flush meets it.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	// Stop the SLO watchdog before the log: Stop blocks until the
	// evaluation goroutine has exited, so no tick can observe a closing
	// store.
	s.watchdog.Stop()
	// The log's final flush fails like any other on a fail-stop device: a
	// degraded store reports ErrDegraded wrapping the device's error.
	if err := s.log.Close(); err != nil {
		return s.enterDegraded(err)
	}
	if s.degraded.Load() {
		return ErrDegraded
	}
	return nil
}

// RegisterPSF registers a PSF and blocks until indexing is active on all
// ingestion workers. The result carries the safe registration boundary:
// records at addresses >= it are guaranteed indexed.
func (s *Store) RegisterPSF(def psf.Definition) (psf.ID, psf.Result, error) {
	return s.registry.Register(def)
}

// DeregisterPSF stops indexing for id. Records below the returned safe
// deregistration boundary remain index-covered.
func (s *Store) DeregisterPSF(id psf.ID) (psf.Result, error) {
	return s.registry.Deregister(id)
}

// PSFByName returns the id of the active PSF with the given name.
func (s *Store) PSFByName(name string) (psf.ID, bool) { return s.registry.LookupByName(name) }

// TailAddress returns the current log tail.
func (s *Store) TailAddress() uint64 { return s.log.TailAddress() }

// HeadAddress returns the in-memory boundary: addresses >= it are served
// from the circular buffer.
func (s *Store) HeadAddress() uint64 { return s.log.HeadAddress() }

// Property identifies a logical group of records: a PSF and a value in its
// domain (§2.1, Definition 2.2).
type Property struct {
	PSF   psf.ID
	Value expr.Value
}

// PropertyBool builds a boolean property (f, true/false).
func PropertyBool(id psf.ID, v bool) Property { return Property{PSF: id, Value: expr.BoolVal(v)} }

// PropertyString builds a string-valued property.
func PropertyString(id psf.ID, v string) Property {
	return Property{PSF: id, Value: expr.StringVal(v)}
}

// PropertyNumber builds a numeric property.
func PropertyNumber(id psf.ID, v float64) Property {
	return Property{PSF: id, Value: expr.NumberVal(v)}
}

func (p Property) String() string { return fmt.Sprintf("(psf %d, %s)", p.PSF, p.Value) }

// hash returns the property's hash signature.
func (p Property) hash() uint64 { return psf.PropertyHash(p.PSF, p.Value) }

// Stats is a snapshot of store-level counters.
type Stats struct {
	IngestedRecords    int64
	IngestedBytes      int64
	IndexedProperties  int64
	InvalidatedRecs    int64 // copies ingest abandoned, the only records with the invalid bit: BadCAS reallocations, rebuilds under a newer PSF meta
	TailAddress        uint64
	LogSizeBytes       uint64 // live footprint: tail - truncation point
	TotalAppendedBytes uint64 // tail - begin: everything ever appended, incl. truncated
	TableStats         hashtable.Stats
	// Degraded is true once a permanent I/O failure has flipped the store
	// into read-only mode; DegradedCause describes the failure.
	Degraded      bool
	DegradedCause string
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	live, tail := s.liveLogBytes()
	deg, cause := s.degradation()
	return Stats{
		IngestedRecords:    s.ingestedRecords.Load(),
		IngestedBytes:      s.ingestedBytes.Load(),
		IndexedProperties:  s.indexedProps.Load(),
		InvalidatedRecs:    s.invalidated.Load(),
		TailAddress:        tail,
		LogSizeBytes:       live,
		TotalAppendedBytes: tail - hlog.BeginAddress,
		TableStats:         s.table.Stats(),
		Degraded:           deg,
		DegradedCause:      cause,
	}
}

// liveLogBytes returns the live log footprint (tail minus truncation point)
// and the tail it used. The truncation point is loaded FIRST: TruncateUntil
// never raises it past the tail it observed, so trunc <= tail holds for any
// later tail read — loading in the other order can observe a tail from
// before a concurrent truncation and underflow the subtraction.
func (s *Store) liveLogBytes() (live, tail uint64) {
	trunc := s.truncatedUntil.Load()
	tail = s.log.TailAddress()
	if trunc < hlog.BeginAddress {
		trunc = hlog.BeginAddress
	}
	if tail < trunc {
		return 0, tail
	}
	return tail - trunc, tail
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("fishstore: store closed")

// Flush synchronously persists everything ingested so far (the periodic
// "line of persistence" of Appendix E): on return, the durable boundary covers
// the tail observed at the time of the call. A write failure here is
// permanent (the device is fail-stop, a full one included) and degrades the
// store.
func (s *Store) Flush() error {
	if s.degraded.Load() {
		return ErrDegraded
	}
	if err := s.log.FlushTail(); err != nil {
		return s.enterDegraded(fmt.Errorf("flush tail: %w", err))
	}
	return nil
}
