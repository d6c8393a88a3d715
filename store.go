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

	// tracer is the span layer (nil = tracing off); plabels holds the
	// prebuilt pprof label sets (nil = no profiler attribution).
	tracer  *trace.Tracer
	plabels *profileLabels

	// pcache is the read-through cache of immutable on-device log pages
	// (nil when disabled).
	pcache *pagecache.Cache

	// tele is the workload-attribution collector (nil when disabled):
	// per-operation latency sketches plus PSF / property / tenant heavy
	// hitters. watchdog evaluates Options.SLO targets against it (nil when
	// no SLO is configured).
	tele     *telemetry.Collector
	watchdog *telemetry.Watchdog

	subs subscriptions

	ingestedRecords atomic.Int64
	ingestedBytes   atomic.Int64
	indexedProps    atomic.Int64
	invalidated     atomic.Int64 // records abandoned by badCAS reallocation
	truncatedUntil  atomic.Uint64

	// scanLog retains the last N scan decisions (Φ inputs, segment split,
	// observed work) for /debug/fishstore/scan; nil when disabled.
	scanLog *introspect.Ring[introspect.ScanDecision]
	scanSeq atomic.Uint64

	// lastChain publishes the most recent chain sample (SampleChains).
	lastChain atomic.Pointer[introspect.ChainSnapshot]

	// ckptMu is the checkpoint barrier: ingestion batches hold it shared,
	// Checkpoint holds it exclusively while taking its cut.
	ckptMu sync.RWMutex

	// degraded flips (once, sticky) when a permanent write/sync failure
	// proves the device can no longer persist the log. The store then serves
	// reads only: Ingest/Checkpoint/Flush return ErrDegraded.
	degraded      atomic.Bool
	degradedCause atomic.Pointer[string]

	// logFull flips when an ENOSPC-class flush failure fills the device.
	// Unlike degraded it is recoverable: RecoverLogSpace (manual, or
	// automatic with Options.Retention.AutoRecover) truncates retired log
	// prefix, reclaims the space, and clears the flag.
	logFull           atomic.Bool
	logFullCause      atomic.Pointer[string]
	logFullRecoveries atomic.Int64
	reclaimMu         sync.Mutex // serializes RecoverLogSpace attempts

	// gov is the admission-control governor (nil when Options.Limits unset).
	gov *governor

	mu     sync.Mutex
	closed bool
}

// initMetrics resolves the registry (explicit option, process default, or
// disabled), configures tracing, and — when enabled — wraps the device so
// every read/write reports a latency observation. It mutates o in place and
// must run before the hybrid log is built.
func initMetrics(o *Options) *storeMetrics {
	reg := o.Metrics
	if reg == nil {
		reg = defaultRegistry.Load()
	}
	if reg == nil {
		reg = metrics.NewDisabled()
	}
	var flight *introspect.FlightRecorder
	if o.FlightRecorderSize > 0 {
		// The flight recorder becomes the registry's sink and tees every
		// event to the configured TraceSink. When several stores share a
		// registry, the last store opened provides the recorder.
		flight = introspect.NewFlightRecorder(o.FlightRecorderSize, o.TraceSink)
		reg.SetTraceSink(flight)
	} else if o.TraceSink != nil {
		reg.SetTraceSink(o.TraceSink)
	}
	if o.SlowOpThreshold > 0 {
		reg.SetSlowOpThreshold(o.SlowOpThreshold)
	}
	m := newStoreMetrics(reg)
	m.flight = flight
	if o.IORetry != nil && o.Device != nil {
		// Retry closest to the hardware so instrumentation above it observes
		// one logical operation per log request. The user's OnRetry still
		// fires; the store adds its counter and trace on top.
		policy := *o.IORetry
		userHook := policy.OnRetry
		policy.OnRetry = func(op string, attempt int, err error) {
			m.ioRetries.Inc()
			m.reg.Trace("storage.retry",
				metrics.F("op", op),
				metrics.F("attempt", attempt),
				metrics.F("error", err.Error()))
			if userHook != nil {
				userHook(op, attempt, err)
			}
		}
		o.Device = storage.NewRetrying(o.Device, policy)
	}
	if reg.Enabled() {
		o.Device = storage.NewInstrumented(o.Device, m)
	}
	return m
}

// Open creates a store.
func Open(opts Options) (*Store, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	met := initMetrics(&o)
	tr := resolveTracer(&o)
	em := epoch.New()
	// The store is built before its log so the flush hook can flip it into
	// degraded mode; flushes only start once ingestion does, after Open
	// returns with s.log assigned.
	s := &Store{
		opts:    o,
		epoch:   em,
		table:   hashtable.New(o.TableBuckets, o.OverflowBuckets),
		pf:      o.Parser,
		metrics: met,
		tracer:  tr,
	}
	if o.ProfileLabels {
		s.plabels = newProfileLabels()
	}
	if o.Limits != nil {
		s.gov = newGovernor(o.Limits, met)
	}
	if o.PageCachePages > 0 {
		s.pcache = pagecache.New(o.PageCachePages, 1<<(o.PageBits-3))
	}
	log, err := hlog.New(hlog.Config{
		PageBits:      o.PageBits,
		MemPages:      o.MemPages,
		Device:        o.Device,
		Epoch:         em,
		OnFlush:       s.flushHook(),
		Tracer:        tr,
		ProfileLabels: o.ProfileLabels,
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	s.registry = psf.NewRegistry(em, log.TailAddress)
	s.wireInternalMetrics()
	s.wireSpanTee()
	s.registerIntrospection()
	s.wireWorkloadTelemetry()
	return s, nil
}

// flushHook returns the hlog OnFlush hook: a trace event per completed page
// flush (giving the flight recorder a durability timeline leading up to a
// crash), and — on a flush failure — the transition into degraded read-only
// mode. A failed background flush means the device permanently refused a
// write (transient faults were already retried below, when IORetry is set),
// so the store stops pretending it can persist instead of surfacing the
// sticky error at the next page boundary.
func (s *Store) flushHook() func(page uint64, err error) {
	return func(page uint64, err error) {
		if err != nil {
			s.metrics.reg.Trace("hlog.flush",
				metrics.F("page", page), metrics.F("error", err.Error()))
			if storage.IsNoSpace(err) {
				// A full disk is a managed condition, not a dead device:
				// the sealed page is retained in its frame and re-driven by
				// RecoverLogSpace after retention truncation reclaims room.
				s.enterLogFull(fmt.Errorf("page %d flush: %w", page, err))
				return
			}
			s.enterDegraded(fmt.Errorf("page %d flush: %w", page, err))
			return
		}
		s.metrics.reg.Trace("hlog.flush", metrics.F("page", page))
	}
}

// ErrDegraded is returned by Ingest, Checkpoint, and Flush once the store
// has entered degraded read-only mode after a permanent write or sync
// failure. Reads, scans, and verification keep working; the only way out is
// to fix the device and reopen the store.
var ErrDegraded = errors.New("fishstore: store degraded to read-only after permanent I/O failure")

// enterDegraded flips the store into degraded read-only mode (once; the
// first cause wins and is retained for Stats and introspection).
func (s *Store) enterDegraded(cause error) {
	if cause == nil || !s.degraded.CompareAndSwap(false, true) {
		return
	}
	msg := cause.Error()
	s.degradedCause.Store(&msg)
	s.metrics.reg.Trace("store.degraded", metrics.F("cause", msg))
	if w := s.opts.FlightDumpWriter; w != nil {
		_ = s.DumpFlight(w)
	}
}

// Degraded reports whether the store is in degraded read-only mode, and the
// cause that put it there.
func (s *Store) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	if c := s.degradedCause.Load(); c != nil {
		return true, *c
	}
	return true, ""
}

// wireInternalMetrics attaches counters and trace hooks to the store's
// internal subsystems. Hooks are installed before any concurrent use of the
// subsystems (Open/Recover return the store only afterwards).
func (s *Store) wireInternalMetrics() {
	reg := s.metrics.reg
	if !reg.Enabled() {
		return
	}
	s.epoch.Instrument(s.metrics.epochBumps, s.metrics.epochActions, func(ran int) {
		reg.Trace("epoch.drain",
			metrics.F("actions", ran),
			metrics.F("safe", s.epoch.SafeEpoch()))
	})
	s.table.Instrument(s.metrics.htEntries, s.metrics.htOverflowAdds, func(overflowIdx int) {
		reg.Trace("hashtable.grow", metrics.F("overflow_buckets", overflowIdx))
	})
	s.registry.SetTrace(func(state string, version uint64) {
		reg.Trace("psf."+state, metrics.F("version", version))
	})
	s.registerGaugeFuncs()
}

// Close flushes and closes the store. All sessions must be closed first.
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
	return s.log.Close()
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

// ApplyPSFChanges applies a batch of registrations/deregistrations
// atomically (one run of the Fig 7 protocol).
func (s *Store) ApplyPSFChanges(changes []psf.Change) (psf.Result, error) {
	return s.registry.Apply(changes)
}

// PSFByName returns the id of the active PSF with the given name.
func (s *Store) PSFByName(name string) (psf.ID, bool) { return s.registry.LookupByName(name) }

// IndexedIntervals returns the log intervals over which id's index is
// guaranteed complete.
func (s *Store) IndexedIntervals(id psf.ID) []psf.Interval { return s.registry.Intervals(id) }

// TailAddress returns the current log tail.
func (s *Store) TailAddress() uint64 { return s.log.TailAddress() }

// BeginAddress returns the first record address.
func (s *Store) BeginAddress() uint64 { return hlog.BeginAddress }

// HeadAddress returns the in-memory boundary: addresses >= it are served
// from the circular buffer.
func (s *Store) HeadAddress() uint64 { return s.log.HeadAddress() }

// FlushedUntil returns the durable boundary.
func (s *Store) FlushedUntil() uint64 { return s.log.FlushedUntil() }

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
	InvalidatedRecs    int64 // only non-zero in BadCAS mode
	TailAddress        uint64
	LogSizeBytes       uint64 // live footprint: tail - truncation point
	TotalAppendedBytes uint64 // tail - begin: everything ever appended, incl. truncated
	TableStats         hashtable.Stats
	// Degraded is true once a permanent I/O failure has flipped the store
	// into read-only mode; DegradedCause describes the failure.
	Degraded      bool
	DegradedCause string
	// LogFull is true while the store is refusing ingestion because the
	// device is out of space (recoverable via RecoverLogSpace);
	// LogFullRecoveries counts successful recoveries over the store's life.
	LogFull           bool
	LogFullCause      string
	LogFullRecoveries int64
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	live, tail := s.liveLogBytes()
	deg, cause := s.Degraded()
	full, fullCause := s.LogFull()
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
		LogFull:            full,
		LogFullCause:       fullCause,
		LogFullRecoveries:  s.logFullRecoveries.Load(),
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

// Device returns the underlying storage device (for experiment harnesses
// that need I/O statistics, e.g. SimSSD counters). Metrics instrumentation
// wrappers are peeled off so callers see the device they configured.
func (s *Store) Device() storage.Device { return storage.Unwrap(s.log.Device()) }

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("fishstore: store closed")

// Flush synchronously persists everything ingested so far (the periodic
// "line of persistence" of Appendix E): on return, FlushedUntil covers the
// tail observed at the time of the call. A write failure here is permanent
// (retries, if configured, already ran below) and degrades the store.
func (s *Store) Flush() error {
	if s.degraded.Load() {
		return ErrDegraded
	}
	if s.logFull.Load() {
		return ErrLogFull
	}
	if err := s.log.FlushTail(); err != nil {
		if storage.IsNoSpace(err) {
			s.enterLogFull(fmt.Errorf("flush tail: %w", err))
			return fmt.Errorf("%w: %v", ErrLogFull, err)
		}
		s.enterDegraded(fmt.Errorf("flush tail: %w", err))
		return err
	}
	return nil
}
