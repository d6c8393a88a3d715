package fishstore

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"fishstore/internal/epoch"
	"fishstore/internal/expr"
	"fishstore/internal/hashtable"
	"fishstore/internal/parser"
	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/telemetry"
	"fishstore/internal/trace"
)

// Session is an ingestion worker's handle (§6). Each concurrent ingestion
// goroutine owns one Session; it holds the worker's epoch guard, its
// thread-local parser session, and its cached view of the PSF registration
// metadata. A Session is not safe for concurrent use.
type Session struct {
	store *Store
	guard *epoch.Guard

	meta  *psf.Meta
	psess parser.Session
	// metaEpoch is the guard's epoch when meta was loaded; the allocator
	// moves the guard past it when it refreshes while waiting for a page.
	metaEpoch uint64

	// Per-batch scratch, reused across records.
	ptrSpecs    []record.PointerSpec
	ptrHashes   []uint64 // pre-computed for unsharded PSFs; 0 placeholder otherwise
	ptrShards   []int    // shard count per pointer (1 = unsharded)
	ptrCanons   [][]byte // canonical bytes of sharded pointers, views of canon
	canon       []byte   // the record's canonical values, back to back
	valueRegion []byte

	// Workload-attribution scratch: per-meta-PSF record/byte counts
	// accumulated with plain adds on the hot path and flushed into the
	// collector once per batch.
	teleRecs  []int64
	teleBytes []int64

	phases PhaseStats
	closed bool
}

// PhaseStats is the per-session CPU-time breakdown of ingestion (Fig 13).
// Populated only when Options.CollectPhaseStats is set.
type PhaseStats struct {
	Parse   time.Duration // structural index + field extraction
	PSFEval time.Duration // PSF evaluation + pointer spec construction
	Memcpy  time.Duration // record allocation + copy onto the log
	Index   time.Duration // hash table and hash chain updates
	Others  time.Duration // visibility, refresh, bookkeeping
	Records int64
}

// Add accumulates other into p.
func (p *PhaseStats) Add(other PhaseStats) {
	p.Parse += other.Parse
	p.PSFEval += other.PSFEval
	p.Memcpy += other.Memcpy
	p.Index += other.Index
	p.Others += other.Others
	p.Records += other.Records
}

// add accumulates one batch's phase laps, indexed like phaseNames.
func (p *PhaseStats) add(ph [5]time.Duration) {
	p.Parse += ph[0]
	p.PSFEval += ph[1]
	p.Memcpy += ph[2]
	p.Index += ph[3]
	p.Others += ph[4]
}

// Total returns the sum of all phases.
func (p PhaseStats) Total() time.Duration {
	return p.Parse + p.PSFEval + p.Memcpy + p.Index + p.Others
}

// IngestStats summarizes one Ingest call.
type IngestStats struct {
	Records     int
	Bytes       int64
	Properties  int // key pointers written
	ParseErrors int
	Reallocs    int // badCAS mode only
}

// NewSession registers an ingestion worker. The worker's epoch slot is
// only protected while an Ingest call is in flight, so idle sessions never
// block PSF registration or page-frame recycling.
func (s *Store) NewSession() *Session {
	g := s.epoch.Acquire()
	g.Unprotect()
	return &Session{store: s, guard: g}
}

// Close releases the worker's epoch slot. The Session must not be used
// afterwards.
func (sess *Session) Close() {
	if sess.closed {
		return
	}
	sess.closed = true
	sess.guard.Release()
}

// Phases returns the accumulated phase breakdown.
func (sess *Session) Phases() PhaseStats { return sess.phases }

// refreshMeta refreshes the epoch and rebuilds the parser session if PSF
// registration changed (§6.1: "whenever a worker detects changes in the
// fields of interest ... it recalculates the minimum field set for index
// building and recreates its thread-local parser").
func (sess *Session) refreshMeta() error {
	sess.guard.Refresh()
	sess.metaEpoch = sess.guard.Epoch()
	meta := sess.store.registry.CurrentMeta()
	if sess.meta != nil && meta.Version == sess.meta.Version {
		return nil
	}
	ps, err := sess.store.pf.NewSession(meta.Fields)
	if err != nil {
		return fmt.Errorf("fishstore: rebuilding parser: %w", err)
	}
	sess.meta = meta
	sess.psess = ps
	// Any counts for the previous meta were flushed at the end of the batch
	// that accumulated them; size fresh accumulators for the new PSF set
	// (cold path: only on registration changes).
	sess.teleRecs = make([]int64, len(meta.PSFs))
	sess.teleBytes = make([]int64, len(meta.PSFs))
	return nil
}

// Ingest pushes a batch of raw records through the four ingestion phases:
// (1) parsing and PSF evaluation, (2) record space allocation, (3) subset
// hash index update, (4) record visibility.
func (sess *Session) Ingest(batch [][]byte) (IngestStats, error) {
	return sess.IngestContext(nil, batch)
}

// IngestContext is Ingest with deadline/cancellation propagation: the batch
// is checked against ctx between records. Records ingested before
// cancellation stay ingested (the returned stats count them); the log,
// index, and epochs are left consistent.
func (sess *Session) IngestContext(ctx context.Context, batch [][]byte) (IngestStats, error) {
	if sess.closed {
		return IngestStats{}, ErrClosed
	}
	if sess.store.degraded.Load() {
		return IngestStats{}, ErrDegraded
	}
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return IngestStats{}, err
		}
		done = ctx.Done()
	}
	sess.store.ckptMu.RLock()
	defer sess.store.ckptMu.RUnlock()
	sess.guard.Protect()
	defer sess.guard.Unprotect()
	if err := sess.refreshMeta(); err != nil {
		return IngestStats{}, err
	}
	met := sess.store.metrics
	// One sampled root span per batch (nil when tracing is off or the batch
	// is unsampled). The phase laps are the loop's only per-phase
	// instrumentation: they run under CollectPhaseStats or on a sampled
	// batch, and add into ph, indexed like phaseNames.
	sp := sess.store.tracer.StartRoot("ingest.batch")
	defer sp.End()
	collect := sess.store.opts.CollectPhaseStats
	timed := collect || sp != nil
	tele := sess.store.tele
	batchStart := time.Now()

	var st IngestStats
	var ph [5]time.Duration
	var mark time.Time
	lap := func(i int) {
		if timed {
			now := time.Now()
			ph[i] += now.Sub(mark)
			mark = now
		}
	}

	for _, payload := range batch {
		if done != nil {
			// Between-record cancellation point: the cheapest place where the
			// log, index, and epoch state are all quiescent for this session.
			select {
			case <-done:
				return st, ctx.Err()
			default:
			}
		}
		if timed {
			mark = time.Now()
		}

		// Phase 1a: parse the active fields of interest.
		parsed, perr := sess.psess.Parse(payload)
		lap(0)
		if perr != nil {
			// Malformed records are still stored (FishStore keeps raw data
			// regardless) but carry no index entries.
			st.ParseErrors++
		}

		// Phase 1b: evaluate PSFs, pre-compute property hashes, and build
		// key pointer specs (subset hashing: the hash of each (PSF, value)
		// property is computed here, inside psf_eval).
		sess.buildPointers(payload, parsed, perr != nil)
		lap(1)

		// Phases 2..4, with one retry loop for badCAS reallocation.
		for {
			spec := record.Spec{
				Payload:     payload,
				Pointers:    sess.ptrSpecs,
				ValueRegion: sess.valueRegion,
				Checksum:    !sess.store.opts.disableRecordChecksums,
			}
			if err := spec.Validate(); err != nil {
				return st, err
			}
			alloc, err := sess.store.log.Allocate(sess.guard, spec.SizeWords())
			if err != nil {
				if sess.store.log.FlushError() != nil {
					// The frame this allocation needs holds a page whose
					// flush failed: the device refused a write for good.
					return st, sess.store.enterDegraded(fmt.Errorf("ingest allocate: %w", err))
				}
				return st, err
			}
			spec.Write(alloc.Words)
			if sess.guard.Epoch() != sess.metaEpoch &&
				sess.store.registry.CurrentMeta().Version != sess.meta.Version {
				// The allocator refreshed this worker's epoch while it waited
				// for a page, which lets a PSF change reach REST: the record
				// may sit past the safe registration boundary without the
				// pointers the new meta asks for (§5.3). Abandon this copy and
				// rebuild the record under the current meta.
				record.View{Words: alloc.Words}.Abandon()
				sess.store.invalidated.Add(1)
				sess.flushBatchAttribution(tele)
				if err := sess.refreshMeta(); err != nil {
					return st, err
				}
				parsed, perr := sess.psess.Parse(payload)
				sess.buildPointers(payload, parsed, perr != nil)
				continue
			}
			lap(2)

			view := record.View{Words: alloc.Words}
			ok, err := sess.linkAll(alloc.Address, view)
			lap(3)
			if err != nil {
				return st, err
			}
			if !ok {
				// badCAS mode: abandon this copy and reallocate at the tail.
				view.Abandon()
				sess.store.invalidated.Add(1)
				st.Reallocs++
				continue
			}

			view.SetVisible()
			sess.store.subs.notify(sess.store, alloc.Address, view, sess.ptrSpecs, payload, sess.valueRegion)
			lap(4)
			break
		}

		st.Records++
		st.Bytes += int64(len(payload))
		st.Properties += len(sess.ptrSpecs)
		met.recordBytes.Observe(int64(len(payload)))
	}

	sess.phases.Records += int64(st.Records)
	if collect {
		sess.phases.add(ph)
	}
	sess.store.ingestedRecords.Add(int64(st.Records))
	sess.store.ingestedBytes.Add(st.Bytes)
	sess.store.indexedProps.Add(int64(st.Properties))

	// The batch is timed once: the collector's histogram is also what the
	// registry exports as fishstore_ingest_batch_seconds.
	elapsed := time.Since(batchStart)
	tele.RecordOp(telemetry.OpIngestBatch, elapsed)
	sess.flushBatchAttribution(tele)
	if met.reg.Enabled() {
		met.ingestRecords.Add(int64(st.Records))
		met.ingestBytes.Add(st.Bytes)
		met.ingestProps.Add(int64(st.Properties))
		met.parseErrors.Add(int64(st.ParseErrors))
		met.reallocations.Add(int64(st.Reallocs))
		if collect {
			for i, d := range ph {
				met.phaseSeconds[i].Observe(int64(d))
			}
		}
	}
	if slow := sess.store.opts.SlowOpThreshold; slow > 0 && elapsed >= slow {
		met.event("ingest.slow_batch", trace.Float("seconds", elapsed.Seconds()),
			trace.Int("records", int64(st.Records)), trace.Int("bytes", st.Bytes))
	}
	if sp != nil {
		sp.SetInt("records", int64(st.Records))
		sp.SetInt("bytes", st.Bytes)
		sp.SetInt("properties", int64(st.Properties))
		sp.SetInt("parse_errors", int64(st.ParseErrors))
		sp.SetInt("reallocs", int64(st.Reallocs))
		for i, d := range ph {
			sp.SetInt(phaseAttrs[i], int64(d))
		}
	}
	return st, nil
}

// buildPointers evaluates every active PSF against the parsed record and
// fills sess.ptrSpecs / ptrHashes / valueRegion. Values that are verbatim
// substrings of the payload become zero-copy ModePayload pointers; values
// that are not (escaped strings, non-canonical numbers, computed values)
// are materialized into the optional value region. Canonical bytes are
// rendered into the session's canon buffer, which only grows within a
// record, so the views kept in ptrCanons stay intact until linkAll.
//
//fishlint:hotpath per-record pointer construction (ingest phase 3)
func (sess *Session) buildPointers(payload []byte, parsed *parser.Parsed, parseFailed bool) {
	sess.ptrSpecs = sess.ptrSpecs[:0]
	sess.ptrHashes = sess.ptrHashes[:0]
	sess.ptrShards = sess.ptrShards[:0]
	sess.ptrCanons = sess.ptrCanons[:0]
	sess.canon = sess.canon[:0]
	sess.valueRegion = sess.valueRegion[:0]
	if parseFailed {
		return
	}
	for i := range sess.meta.PSFs {
		a := &sess.meta.PSFs[i]
		v := a.Def.Evaluate(parsed)
		if v.Kind == expr.KindMissing {
			continue
		}
		start := len(sess.canon)
		sess.canon = psf.AppendCanonical(sess.canon, v)
		canonical := sess.canon[start:]
		ps := record.PointerSpec{PSFID: a.ID}
		if v.Kind == expr.KindBool {
			ps.Mode = record.ModeBool
			ps.BoolValue = v.Bool
		} else {
			inPayload := false
			if a.Def.Kind == psf.KindProjection {
				if f, ok := parsed.Get(a.Def.Fields[0]); ok && f.Offset >= 0 &&
					f.Len == len(canonical) &&
					bytes.Equal(payload[f.Offset:f.Offset+f.Len], canonical) {
					ps.Mode = record.ModePayload
					ps.ValOffset = f.Offset
					ps.ValSize = f.Len
					inPayload = true
				}
			}
			if !inPayload {
				ps.Mode = record.ModeValueRegion
				ps.ValOffset = len(sess.valueRegion)
				ps.ValSize = len(canonical)
				sess.valueRegion = append(sess.valueRegion, canonical...)
			}
		}
		sess.ptrSpecs = append(sess.ptrSpecs, ps)
		// Batch-local attribution: plain slice-index adds here, one
		// collector update per active PSF at batch end.
		sess.teleRecs[i]++
		sess.teleBytes[i] += int64(len(payload))
		shards := a.Def.ShardCount()
		sess.ptrShards = append(sess.ptrShards, shards)
		if shards > 1 {
			// The shard is derived from the record's address (chosen at
			// allocation time, see linkAll), so recovery replay can
			// recompute it; keep the canonical bytes until then.
			sess.ptrCanons = append(sess.ptrCanons, canonical)
			sess.ptrHashes = append(sess.ptrHashes, 0)
		} else {
			sess.ptrCanons = append(sess.ptrCanons, nil)
			sess.ptrHashes = append(sess.ptrHashes, hashtable.HashProperty(a.ID, canonical))
		}
	}
}

// linkAll runs phase 3 for every key pointer of the record. It returns
// ok=false only in badCAS mode, where a single CAS failure forces the caller
// to reallocate the record.
//
//fishlint:hotpath per-record chain linking (ingest phase 4)
func (sess *Session) linkAll(recAddr uint64, view record.View) (bool, error) {
	for i := range sess.ptrSpecs {
		wi := view.PointerWordIndex(i)
		kptAddr := recAddr + uint64(wi)*8
		wordA := &view.Words[wi]
		h := sess.ptrHashes[i]
		if shards := sess.ptrShards[i]; shards > 1 {
			h = psf.ShardHash(sess.ptrSpecs[i].PSFID, sess.ptrCanons[i], shardOf(recAddr, shards), shards)
		}
		if sess.store.opts.BadCAS {
			ok, err := sess.store.linkPointerNaive(h, kptAddr, wordA)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
			continue
		}
		if err := sess.store.linkPointer(h, kptAddr, wordA); err != nil {
			return false, err
		}
	}
	return true, nil
}

// shardOf derives a sharded PSF's chain for the record at addr. Using the
// address (rather than a counter) makes the assignment recomputable during
// recovery replay.
func shardOf(addr uint64, shards int) int {
	return int((addr >> 6) % uint64(shards))
}

// flushBatchAttribution drains the batch-local per-PSF accumulators into the
// collector (one locked update per active PSF per batch).
func (sess *Session) flushBatchAttribution(tele *telemetry.Collector) {
	for i := range sess.teleRecs {
		if sess.teleRecs[i] != 0 {
			tele.ObservePSF(sess.meta.PSFs[i].Def.Name, sess.teleRecs[i], sess.teleBytes[i])
			sess.teleRecs[i], sess.teleBytes[i] = 0, 0
		}
	}
}
