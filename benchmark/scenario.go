package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fishstore"
	"fishstore/internal/expr"
	"fishstore/internal/parser/pjson"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// Every workload runs this one scenario through the store's public API:
//
//	Open → RegisterPSF → Session.Ingest (one PSF registered late, at 50% of
//	the corpus) → Flush → query mix (Lookup; Scan in ForceIndex, ForceFull
//	and Auto mode) → [Checkpoint → a short ingested suffix → Close → Recover
//	→ verify] × recoverCycles
//
// so every workload reports every metric. A round is one pass on a fresh
// store; a run reports the median of its rounds (run.go).

// runner carries one run's inputs, its correctness ledger and, in a traced
// run, the span recorder.
type runner struct {
	w      *workload
	c      *corpus
	o      *oracle
	tr     *tracer       // nil in the untraced run
	tmp    string        // scratch directory of this run, removed on exit
	stores int           // stores created so far, names their directories
	window time.Duration // mixed workload: how long a round's window stays open

	mu                sync.Mutex // the mixed workload checks from two goroutines
	attempted, failed int64
	failures          []string // first few failed checks, for the report
}

// check records one correctness check or operation; a false ok counts as a
// failed operation and makes the run incorrect.
func (r *runner) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// op counts one store operation and reports whether it succeeded.
func (r *runner) op(err error, what string) bool {
	r.check(err == nil, "%s: %v", what, err)
	return err == nil
}

// devices is one open of the workload's storage stack.
type devices struct {
	top     storage.Device
	sim     *storage.SimSSD // file workloads
	counted *countingDevice // traced runs
}

// openDevices opens the workload's device in dir: a Mem device (kept in mem
// across a close, as a crashed machine's disk would be) or a File under the
// simulated SSD. reopen opens the existing log with a new file handle, so
// only bytes that reached the file are visible to recovery.
func (r *runner) openDevices(dir string, mem *storage.Mem, reopen bool) (devices, error) {
	var d devices
	if r.w.file {
		open := storage.OpenFile
		if reopen {
			open = storage.OpenFileExisting
		}
		f, err := open(filepath.Join(dir, "log.dat"))
		if err != nil {
			return d, err
		}
		d.sim = storage.NewSimSSD(f, storage.DefaultSSDProfile())
		d.top = d.sim
	} else {
		d.top = mem
	}
	if r.tr != nil {
		d.counted = &countingDevice{inner: d.top, t: r.tr}
		d.top = d.counted
	}
	return d, nil
}

func (r *runner) options(d devices) fishstore.Options {
	o := r.w.options()
	o.Device = d.top
	if r.tr != nil {
		o.Parser = &tracedFactory{inner: pjson.New(), t: r.tr}
		o.CollectPhaseStats = true
	}
	return o
}

// store is an open store with the ids of the PSFs the scenario queries.
type store struct {
	*fishstore.Store
	dev                     devices
	dir                     string
	mem                     *storage.Mem
	lookup, selective, late psf.ID
	userBytes               int64 // payload bytes ingested over the log's life
}

// open creates a fresh store in its own directory and registers the
// dataset's base PSFs. It is the part of set-up that belongs to the store.
func (r *runner) open() (*store, error) {
	r.stores++
	dir := filepath.Join(r.tmp, fmt.Sprintf("store-%d", r.stores))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &store{dir: dir, mem: storage.NewMem()}
	dev, err := r.openDevices(dir, st.mem, false)
	if err != nil {
		return nil, err
	}
	st.dev = dev
	st.Store, err = fishstore.Open(r.options(dev))
	if err != nil {
		return nil, err
	}
	for _, def := range r.w.data.base {
		if _, _, err := st.RegisterPSF(def); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.resolve(r.w.data, false); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

func (st *store) resolve(d *dataset, late bool) error {
	var ok1, ok2, ok3 bool
	st.lookup, ok1 = st.PSFByName(d.lookupPSF)
	st.selective, ok2 = st.PSFByName(d.selective)
	ok3 = true
	if late {
		st.late, ok3 = st.PSFByName(d.late.Name)
	}
	if !ok1 || !ok2 || !ok3 {
		return errors.New("benchmark: a registered PSF is missing from the store")
	}
	return nil
}

// discard closes a store and deletes its files.
func (st *store) discard() {
	st.Close()
	os.RemoveAll(st.dir)
}

// ingestSamples is what one ingest phase measured.
type ingestSamples struct {
	records, props int64
	bytes          int64
	wall           time.Duration
	batchUs        []float64 // per-call latency; open loop: from when the batch was due
	lateMs         []float64 // open loop: how late each batch started
	mallocs        uint64
}

// ingest pushes stream records [from, to) through sess in 64-record batches,
// closed loop, registering the late PSF when the stream reaches lateAt.
func (r *runner) ingest(st *store, sess *fishstore.Session, from, to, lateAt int, out *ingestSamples) {
	r.tr.parserSessionsOn(laneWrite)
	batch := make([][]byte, batchRecords)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	for k := from; k < to; k += batchRecords {
		if k == lateAt {
			_, _, err := st.RegisterPSF(r.w.data.late)
			if r.op(err, "RegisterPSF(late)") {
				r.op(st.resolve(r.w.data, true), "resolve late PSF")
			}
		}
		bytes := r.c.fill(batch, k)
		out.bytes += bytes
		st.userBytes += bytes
		sp := r.tr.begin("Ingest", laneWrite)
		t0 := time.Now()
		is, err := sess.Ingest(batch)
		d := time.Since(t0)
		sp.end()
		r.check(err == nil && is.ParseErrors == 0 && is.Records == batchRecords,
			"Ingest batch at %d: err=%v parse_errors=%d records=%d", k, err, is.ParseErrors, is.Records)
		out.batchUs = append(out.batchUs, float64(d)/1e3)
		out.records += int64(is.Records)
		out.props += int64(is.Properties)
	}
	out.wall += time.Since(begin)
	runtime.ReadMemStats(&ms1)
	out.mallocs += ms1.Mallocs - ms0.Mallocs
}

// scanSample is one timed Scan.
type scanSample struct {
	ms, firstMs  float64
	matched      int64
	matchedBytes int64
	devReadBytes int64 // traced runs: bytes the scan read from the device
	stats        fishstore.ScanStats
}

func (r *runner) scan(st *store, prop fishstore.Property, opts fishstore.ScanOptions) scanSample {
	var s scanSample
	if c := st.dev.counted; c != nil {
		s.devReadBytes = -c.readBytes.Load()
	}
	sp := r.tr.begin("Scan."+opts.Mode.String(), laneRead)
	t0 := time.Now()
	stats, err := st.Scan(prop, opts, func(rec fishstore.Record) bool {
		if s.matched == 0 {
			s.firstMs = float64(time.Since(t0)) / 1e6
		}
		s.matched++
		s.matchedBytes += int64(len(rec.Payload))
		return true
	})
	s.ms = float64(time.Since(t0)) / 1e6
	sp.end()
	if c := st.dev.counted; c != nil {
		s.devReadBytes += c.readBytes.Load()
	}
	s.stats = stats
	r.op(err, "Scan "+opts.Mode.String())
	return s
}

// lookup is one timed Lookup that stops at the first match.
func (r *runner) lookup(st *store, key expr.Value) (us float64) {
	found := false
	sp := r.tr.begin("Lookup", laneRead)
	t0 := time.Now()
	_, err := st.Lookup(fishstore.Property{PSF: st.lookup, Value: key}, func(fishstore.Record) bool {
		found = true
		return false
	})
	us = float64(time.Since(t0)) / 1e3
	sp.end()
	r.check(err == nil && found, "Lookup %s: err=%v found=%v", key, err, found)
	return us
}

// querySamples is what one pass of the query mix measured.
type querySamples struct {
	lookupUs                                 []float64
	index, full, reeval, adaptive, parallel2 []scanSample
	adaptiveMallocs                          uint64
}

// add appends o's samples to q.
func (q *querySamples) add(o *querySamples) {
	q.lookupUs = append(q.lookupUs, o.lookupUs...)
	q.index = append(q.index, o.index...)
	q.full = append(q.full, o.full...)
	q.reeval = append(q.reeval, o.reeval...)
	q.adaptive = append(q.adaptive, o.adaptive...)
	q.parallel2 = append(q.parallel2, o.parallel2...)
	q.adaptiveMallocs += o.adaptiveMallocs
}

// ranges says which part of the log the query mix covers: recent is the
// range of the selective-property scans, half the half-indexed range of the
// late-property scans. Zero values mean the whole log.
type ranges struct {
	recent, half         fishstore.ScanOptions
	wantSelective        int64 // -1: only index == full is checked
	wantLate, wantLateIx int64 // late property: whole half range / its indexed suffix
}

// queries runs the query mix once and checks every match count.
func (r *runner) queries(st *store, rg ranges, gc bool, q *querySamples) {
	w := r.w
	collect := func() {
		if gc {
			runtime.GC()
		}
	}
	with := func(o fishstore.ScanOptions, m fishstore.ScanMode) fishstore.ScanOptions {
		o.Mode = m
		return o
	}
	sel := fishstore.PropertyBool(st.selective, true)
	late := fishstore.PropertyBool(st.late, true)
	r.tr.parserSessionsOn(laneRead)

	collect()
	for i := 0; i < w.lookups; i++ {
		q.lookupUs = append(q.lookupUs, r.lookup(st, r.o.keys[(len(q.lookupUs))%len(r.o.keys)]))
	}
	collect()
	indexed := int64(-1)
	for i := 0; i < w.indexScans; i++ {
		s := r.scan(st, sel, with(rg.recent, fishstore.ScanForceIndex))
		q.index = append(q.index, s)
		indexed = s.matched
		if rg.wantSelective >= 0 {
			r.check(s.matched == rg.wantSelective, "index scan matched %d, oracle says %d", s.matched, rg.wantSelective)
		}
	}
	collect()
	for i := 0; i < w.fullScans; i++ {
		s := r.scan(st, sel, with(rg.recent, fishstore.ScanForceFull))
		q.full = append(q.full, s)
		r.check(s.matched == indexed, "full scan matched %d, index scan %d", s.matched, indexed)
	}
	collect()
	for i := 0; i < w.reevalScans; i++ {
		s := r.scan(st, late, with(rg.half, fishstore.ScanForceFull))
		q.reeval = append(q.reeval, s)
		r.check(s.matched == rg.wantLate, "re-evaluating full scan matched %d, oracle says %d", s.matched, rg.wantLate)
	}
	collect()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < w.adaptiveScans; i++ {
		s := r.scan(st, late, with(rg.half, fishstore.ScanAuto))
		q.adaptive = append(q.adaptive, s)
		r.check(s.matched == rg.wantLate, "adaptive scan matched %d, oracle says %d", s.matched, rg.wantLate)
	}
	runtime.ReadMemStats(&ms1)
	q.adaptiveMallocs += ms1.Mallocs - ms0.Mallocs
	// The index alone must find exactly the late property's indexed suffix.
	s := r.scan(st, late, with(rg.half, fishstore.ScanForceIndex))
	r.check(s.matched == rg.wantLateIx, "index scan of the late PSF matched %d, oracle says %d", s.matched, rg.wantLateIx)
	if r.tr != nil {
		par := with(rg.recent, fishstore.ScanForceFull)
		par.Parallelism = 2
		for i := 0; i < 2; i++ {
			q.parallel2 = append(q.parallel2, r.scan(st, sel, par))
		}
	}
}

// recoverCycles is how many checkpoint → close → recover cycles end a round:
// one would leave checkpoint_ms and recover_ms with a single sample each.
const recoverCycles = 3

// durability is what the checkpoint → close → recover cycles measured.
type durability struct {
	checkpointMs, recoverMs []float64 // one sample per cycle
	checkpointBytes         int64
	replayed                int64
	spaceAmp                float64
	// closed sums what the traced devices of the stores the cycles closed had
	// counted (each recovery opens the log anew).
	closed      deviceCounts
	closedSimNs int64
}

// durabilityCycles ends a round: recoverCycles checkpoint → recover cycles,
// each behind a fresh suffix of the stream from record `from` on and each on
// the store the last one recovered. It returns the last recovered store, or
// nil when a recovery failed.
func (r *runner) durabilityCycles(st *store, from int, d *durability) *store {
	suffix := r.c.suffix()
	for i := 0; i < recoverCycles && st != nil; i, from = i+1, from+suffix {
		st = r.checkpointAndRecover(st, from, from+suffix, d)
	}
	return st
}

// checkpointAndRecover takes a checkpoint, ingests stream records
// [suffixFrom, suffixTo) behind it, closes the store, recovers it from the
// checkpoint and the log alone, and verifies the recovered store against the
// oracle. It returns the recovered store, or nil when recovery failed.
func (r *runner) checkpointAndRecover(st *store, suffixFrom, suffixTo int, d *durability) *store {
	ckpt := filepath.Join(st.dir, fmt.Sprintf("checkpoint-%d", len(d.checkpointMs)))
	sp := r.tr.begin("Checkpoint", laneWrite)
	t0 := time.Now()
	err := st.Flush()
	if err == nil {
		err = st.Checkpoint(ckpt)
	}
	d.checkpointMs = append(d.checkpointMs, float64(time.Since(t0))/1e6)
	sp.end()
	r.op(err, "Flush+Checkpoint")
	d.checkpointBytes = dirSize(ckpt)

	sess := st.NewSession()
	var suffix ingestSamples
	r.ingest(st, sess, suffixFrom, suffixTo, -1, &suffix)
	sess.Close()
	sp = r.tr.begin("Flush", laneWrite)
	r.op(st.Flush(), "Flush")
	sp.end()
	tail := st.TailAddress()
	d.spaceAmp = float64(st.Stats().TotalAppendedBytes) / float64(st.userBytes)
	r.op(st.Close(), "Close")
	if c := st.dev.counted; c != nil {
		d.closed = d.closed.add(c.counts())
	}
	if sim := st.dev.sim; sim != nil {
		d.closedSimNs += sim.Stats().SimTimeNanos
	}

	rec := &store{dir: st.dir, mem: st.mem, userBytes: st.userBytes}
	dev, err := r.openDevices(st.dir, st.mem, true)
	if !r.op(err, "reopen device") {
		return nil
	}
	rec.dev = dev
	r.tr.parserSessionsOn(laneRead)
	runtime.GC() // the closed store's buffers are free for the recovered one
	sp = r.tr.begin("Recover", laneRead)
	t0 = time.Now()
	s, info, err := fishstore.Recover(ckpt, fishstore.RecoverOptions{Options: r.options(dev)})
	if err == nil {
		rec.Store = s
		if err = rec.resolve(r.w.data, true); err == nil {
			r.lookup(rec, r.o.keys[0])
		}
	}
	d.recoverMs = append(d.recoverMs, float64(time.Since(t0))/1e6)
	sp.end()
	if !r.op(err, "Recover") {
		dev.top.Close()
		return nil
	}
	d.replayed = info.ReplayedRecords
	r.check(info.RecoveredTail == tail, "recovered tail %d, tail before close %d", info.RecoveredTail, tail)
	r.check(info.ReplayedRecords == int64(suffixTo-suffixFrom), "replayed %d records, %d were ingested after the checkpoint",
		info.ReplayedRecords, suffixTo-suffixFrom)
	want := count(r.o.selective, 0, suffixTo)
	got := r.scan(rec, fishstore.PropertyBool(rec.selective, true), fishstore.ScanOptions{Mode: fishstore.ScanForceIndex})
	r.check(got.matched == want, "index scan after recovery matched %d, oracle says %d", got.matched, want)
	return rec
}

func dirSize(dir string) (n int64) {
	entries, _ := os.ReadDir(dir) // a missing checkpoint already failed its own check
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// roundResult is one round: the end-to-end metrics, and in a traced round the
// per-layer metrics.
type roundResult struct {
	e2e, layer map[string]float64
}

// round runs the scenario once on a fresh store: phase after phase, or with
// ingest and queries overlapped on the mixed workload.
func (r *runner) round() (roundResult, error) {
	if r.w.mixed {
		return r.mixedRound()
	}
	// Collect the last round's stores first, so that this one's log buffer and
	// table can reuse their memory instead of growing the heap.
	runtime.GC()
	st, err := r.open()
	if err != nil {
		return roundResult{}, err
	}
	queried, lateAt := r.c.queried(), r.c.lateAt()
	lt := newLayerTrace(r, st)

	sess := st.NewSession()
	runtime.GC()
	var in ingestSamples
	r.ingest(st, sess, 0, queried, lateAt, &in)
	sp := r.tr.begin("Flush", laneWrite)
	t0 := time.Now()
	r.op(st.Flush(), "Flush")
	flushMs := float64(time.Since(t0)) / 1e6
	sp.end()
	lt.afterIngest(sess.Phases(), &in, flushMs)

	var q querySamples
	r.queries(st, ranges{
		wantSelective: count(r.o.selective, 0, queried),
		wantLate:      count(r.o.late, 0, queried),
		wantLateIx:    count(r.o.late, lateAt, queried),
	}, true, &q)
	lt.afterQueries(&q)

	sess.Close()
	var d durability
	rec := r.durabilityCycles(st, queried, &d)
	lt.afterRecovery(rec, &d)
	if rec != nil {
		rec.Close()
	}
	os.RemoveAll(st.dir)

	return roundResult{e2e: e2eOf(&in, &q, &d), layer: lt.metrics()}, nil
}

// e2eOf reduces one round's samples to the end-to-end metrics: a latency is
// the median of its samples within the round (setup_s is measured by the run,
// not by a round).
func e2eOf(in *ingestSamples, q *querySamples, d *durability) map[string]float64 {
	return map[string]float64{
		"ingest_rec_s":         float64(in.records) / in.wall.Seconds(),
		"ingest_mb_s":          float64(in.bytes) / 1e6 / in.wall.Seconds(),
		"ingest_batch_p50_us":  median(in.batchUs),
		"lookup_p50_us":        median(q.lookupUs),
		"scan_index_p50_ms":    medianOf(q.index, scanMs),
		"scan_full_p50_ms":     medianOf(q.full, scanMs),
		"scan_reeval_p50_ms":   medianOf(q.reeval, scanMs),
		"scan_adaptive_p50_ms": medianOf(q.adaptive, scanMs),
		"checkpoint_ms":        median(d.checkpointMs),
		"recover_ms":           median(d.recoverMs),
		"space_amp":            d.spaceAmp,
	}
}
