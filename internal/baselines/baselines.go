// Package baselines implements the alternative systems FishStore is
// evaluated against (§8.1):
//
//   - FASTER-RJ: full-DOM parse of the primary key, ingest into the
//     FASTER-like point KV store.
//   - RDB-RJ / RDB-Mison: parse only the primary key (with the full or the
//     partial parser) and ingest into the LSM tree ("RocksDB").
//   - RDB-Mison++: FishStore's log as primary storage with the LSM tree as
//     a *secondary* subset index (replaces FishStore's hash index).
//   - FishStore-RJ: FishStore with the full-DOM parser (constructed via
//     fishstore.Options; see NewFishStoreRJ's documentation).
//   - Reorg: a MongoDB/AsterixDB-style store that fully parses every
//     record and reorganizes it into an internal binary format before
//     appending (the ">30 minutes to ingest" comparison of §8.2).
//
// Every system exposes the same Ingestor shape so the experiment harness
// can drive them interchangeably.
package baselines

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"fishstore/internal/epoch"
	"fishstore/internal/expr"
	"fishstore/internal/fasterkv"
	"fishstore/internal/hlog"
	"fishstore/internal/lsm"
	"fishstore/internal/parser"
	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/storage"
)

// Ingestor is a per-worker ingestion handle.
type Ingestor interface {
	Ingest(batch [][]byte) error
	Close()
}

// System is a baseline store.
type System interface {
	Name() string
	NewIngestor() (Ingestor, error)
	Close() error
}

// ---- FASTER-RJ ----

// FasterRJ parses the primary key field with a full DOM parser and upserts
// the raw record into the FASTER-like KV store.
type FasterRJ struct {
	kv       *fasterkv.Store
	pf       parser.Factory
	keyField string
}

// NewFasterRJ creates the baseline. pf should be fulljson.New() for the
// paper's configuration.
func NewFasterRJ(kvOpts fasterkv.Options, pf parser.Factory, keyField string) (*FasterRJ, error) {
	kv, err := fasterkv.Open(kvOpts)
	if err != nil {
		return nil, err
	}
	return &FasterRJ{kv: kv, pf: pf, keyField: keyField}, nil
}

// Name implements System.
func (f *FasterRJ) Name() string { return "FASTER-RJ" }

// Close implements System.
func (f *FasterRJ) Close() error { return f.kv.Close() }

// NewIngestor implements System.
func (f *FasterRJ) NewIngestor() (Ingestor, error) {
	ps, err := f.pf.NewSession([]string{f.keyField})
	if err != nil {
		return nil, err
	}
	return &fasterIngestor{sess: f.kv.NewSession(), ps: ps, keyField: f.keyField}, nil
}

type fasterIngestor struct {
	sess     *fasterkv.Session
	ps       parser.Session
	keyField string
}

func (w *fasterIngestor) Ingest(batch [][]byte) error {
	for _, rec := range batch {
		p, err := w.ps.Parse(rec)
		if err != nil {
			continue
		}
		key := psf.CanonicalValue(p.Lookup(w.keyField))
		if key == nil {
			continue
		}
		if err := w.sess.Upsert(key, rec); err != nil {
			return err
		}
	}
	return nil
}

func (w *fasterIngestor) Close() { w.sess.Close() }

// ---- RDB-RJ / RDB-Mison ----

// RDBKV parses the primary key (with the configured parser) and Puts the
// raw record into the LSM tree.
type RDBKV struct {
	db       *lsm.DB
	pf       parser.Factory
	keyField string
	name     string
}

// NewRDBKV creates RDB-RJ (pf = fulljson) or RDB-Mison (pf = pjson).
func NewRDBKV(name string, dbOpts lsm.Options, pf parser.Factory, keyField string) *RDBKV {
	return &RDBKV{db: lsm.Open(dbOpts), pf: pf, keyField: keyField, name: name}
}

// Name implements System.
func (r *RDBKV) Name() string { return r.name }

// Close implements System.
func (r *RDBKV) Close() error { return r.db.Close() }

// DB exposes the LSM tree (stats).
func (r *RDBKV) DB() *lsm.DB { return r.db }

// NewIngestor implements System.
func (r *RDBKV) NewIngestor() (Ingestor, error) {
	ps, err := r.pf.NewSession([]string{r.keyField})
	if err != nil {
		return nil, err
	}
	return &rdbIngestor{db: r.db, ps: ps, keyField: r.keyField}, nil
}

type rdbIngestor struct {
	db       *lsm.DB
	ps       parser.Session
	keyField string
}

func (w *rdbIngestor) Ingest(batch [][]byte) error {
	for _, rec := range batch {
		p, err := w.ps.Parse(rec)
		if err != nil {
			continue
		}
		key := psf.CanonicalValue(p.Lookup(w.keyField))
		if key == nil {
			continue
		}
		if err := w.db.Put(key, rec); err != nil {
			return err
		}
	}
	return nil
}

func (w *rdbIngestor) Close() {}

// ---- RDB-Mison++ ----

// RDBMisonPP stores raw records on a FishStore-style hybrid log and indexes
// dynamic PSFs in the LSM tree: for every property (f, v) of a record at
// address a, it Puts the key fid | canonical(v) | 0x00 | a. Retrieval is a
// prefix scan over fid|v|0x00 followed by one log read per posting — the
// "secondary index" indirection FishStore's collocated key pointers avoid
// (Appendix A, §8.3).
type RDBMisonPP struct {
	epoch *epoch.Manager
	log   *hlog.Log
	db    *lsm.DB
	pf    parser.Factory
	psfs  []psf.Active
	field []string

	indexed atomic.Int64

	// Phase timers (populated when CollectPhases is set): parse, PSF
	// evaluation, log memcpy, LSM index update.
	collectPhases bool
	parseNS       atomic.Int64
	evalNS        atomic.Int64
	memcpyNS      atomic.Int64
	indexNS       atomic.Int64
}

// Phases reports accumulated phase times (CollectPhases runs only).
func (r *RDBMisonPP) Phases() (parse, eval, memcpy, index time.Duration) {
	return time.Duration(r.parseNS.Load()), time.Duration(r.evalNS.Load()),
		time.Duration(r.memcpyNS.Load()), time.Duration(r.indexNS.Load())
}

// RDBMisonPPOptions configures the system.
type RDBMisonPPOptions struct {
	PageBits uint
	MemPages int
	Device   storage.Device
	LSM      lsm.Options
	// CollectPhases enables per-phase CPU timing (Fig 13).
	CollectPhases bool
}

// NewRDBMisonPP creates the system with a fixed PSF set (the baseline does
// not need FishStore's dynamic registration machinery).
func NewRDBMisonPP(opts RDBMisonPPOptions, pf parser.Factory, defs []psf.Definition) (*RDBMisonPP, error) {
	em := epoch.New()
	if opts.PageBits == 0 {
		opts.PageBits = 20
	}
	if opts.MemPages == 0 {
		opts.MemPages = 16
	}
	log, err := hlog.New(hlog.Config{
		PageBits: opts.PageBits, MemPages: opts.MemPages, Device: opts.Device, Epoch: em,
	})
	if err != nil {
		return nil, err
	}
	r := &RDBMisonPP{epoch: em, log: log, db: lsm.Open(opts.LSM), pf: pf, collectPhases: opts.CollectPhases}
	seen := map[string]bool{}
	for i, d := range defs {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		r.psfs = append(r.psfs, psf.Active{ID: psf.ID(i), Def: d})
		for _, f := range d.Fields {
			if !seen[f] {
				seen[f] = true
				r.field = append(r.field, f)
			}
		}
	}
	return r, nil
}

// Name implements System.
func (r *RDBMisonPP) Name() string { return "RDB-Mison++" }

// Close implements System.
func (r *RDBMisonPP) Close() error {
	if err := r.db.Close(); err != nil {
		return err
	}
	return r.log.Close()
}

// DB exposes the index LSM tree.
func (r *RDBMisonPP) DB() *lsm.DB { return r.db }

// IndexedProperties reports how many index entries were written.
func (r *RDBMisonPP) IndexedProperties() int64 { return r.indexed.Load() }

// indexKey builds fid | canonical | 0x00 | address.
func indexKey(id psf.ID, canonical []byte, addr uint64) []byte {
	key := make([]byte, 0, 2+len(canonical)+1+8)
	key = binary.BigEndian.AppendUint16(key, id)
	key = append(key, canonical...)
	key = append(key, 0)
	key = binary.BigEndian.AppendUint64(key, addr)
	return key
}

// indexPrefix builds the scan prefix fid | canonical | 0x00.
func indexPrefix(id psf.ID, canonical []byte) []byte {
	key := make([]byte, 0, 2+len(canonical)+1)
	key = binary.BigEndian.AppendUint16(key, id)
	key = append(key, canonical...)
	key = append(key, 0)
	return key
}

// NewIngestor implements System.
func (r *RDBMisonPP) NewIngestor() (Ingestor, error) {
	ps, err := r.pf.NewSession(r.field)
	if err != nil {
		return nil, err
	}
	g := r.epoch.Acquire()
	g.Unprotect()
	return &misonPPIngestor{r: r, ps: ps, g: g}, nil
}

type misonPPIngestor struct {
	r  *RDBMisonPP
	ps parser.Session
	g  *epoch.Guard
}

func (w *misonPPIngestor) Ingest(batch [][]byte) error {
	w.g.Protect()
	defer w.g.Unprotect()
	timed := w.r.collectPhases
	var mark time.Time
	lap := func(dst *atomic.Int64) {
		if timed {
			now := time.Now()
			dst.Add(int64(now.Sub(mark)))
			mark = now
		}
	}
	for _, rec := range batch {
		if timed {
			mark = time.Now()
		}
		parsed, perr := w.ps.Parse(rec)
		lap(&w.r.parseNS)

		spec := record.Spec{Payload: rec}
		alloc, err := w.r.log.Allocate(w.g, spec.SizeWords())
		if err != nil {
			return err
		}
		spec.Write(alloc.Words)
		record.View{Words: alloc.Words}.SetVisible()
		lap(&w.r.memcpyNS)

		if perr != nil {
			continue
		}
		for i := range w.r.psfs {
			a := &w.r.psfs[i]
			v := a.Def.Evaluate(parsed)
			if v.Kind == expr.KindMissing {
				continue
			}
			lap(&w.r.evalNS)
			key := indexKey(a.ID, psf.CanonicalValue(v), alloc.Address)
			if err := w.r.db.Put(key, nil); err != nil {
				return err
			}
			w.r.indexed.Add(1)
			lap(&w.r.indexNS)
		}
		lap(&w.r.evalNS)
		w.g.Refresh()
	}
	return nil
}

func (w *misonPPIngestor) Close() { w.g.Release() }

// Retrieve scans all records with property (psfIndex, v), reading each
// posting's record from the log (one random read per match when the record
// is no longer resident). cb semantics match fishstore.Scan.
func (r *RDBMisonPP) Retrieve(psfIndex int, v expr.Value, cb func(payload []byte) bool) (int64, error) {
	if psfIndex < 0 || psfIndex >= len(r.psfs) {
		return 0, fmt.Errorf("baselines: bad psf index %d", psfIndex)
	}
	prefix := indexPrefix(r.psfs[psfIndex].ID, psf.CanonicalValue(v))
	var matched int64
	var scanErr error
	g := r.epoch.Acquire()
	defer g.Release()
	err := r.db.PrefixScan(prefix, func(key, _ []byte) bool {
		addr := binary.BigEndian.Uint64(key[len(key)-8:])
		pageWords := int(r.log.PageSize() / 8)
		var view record.View
		var ok bool
		var err error
		if addr >= r.log.HeadAddress() {
			// The header word aliases the live page frame and may be
			// concurrently CASed visible by an ingest worker.
			view, ok = record.At(r.log.WordsAt(addr&^(r.log.PageSize()-1), pageWords), int(r.log.OffsetOf(addr)/8))
		} else {
			// On-device records are immutable; do not pin the safe epoch
			// across device reads.
			g.Unprotect()
			view, ok, err = record.ReadAt(r.log.ReadWordsFromDevice, addr, pageWords)
			g.Protect()
		}
		if err == nil && !ok {
			err = fmt.Errorf("baselines: no record at posting address %d", addr)
		}
		if err != nil {
			scanErr = err
			return false
		}
		matched++
		return cb(view.AppendPayload(nil))
	})
	if err == nil {
		err = scanErr
	}
	return matched, err
}

// ---- Reorg (MongoDB/AsterixDB analog) ----

// Reorg fully parses every record into a DOM, reorganizes it into an
// internal binary format (a sorted-key re-serialization), and appends it to
// a log — reproducing the "significant time reorganizing records into their
// own binary format" behaviour of §8.2.
type Reorg struct {
	epoch *epoch.Manager
	log   *hlog.Log
}

// NewReorg creates the system.
func NewReorg(pageBits uint, memPages int, dev storage.Device) (*Reorg, error) {
	em := epoch.New()
	log, err := hlog.New(hlog.Config{PageBits: pageBits, MemPages: memPages, Device: dev, Epoch: em})
	if err != nil {
		return nil, err
	}
	return &Reorg{epoch: em, log: log}, nil
}

// Name implements System.
func (r *Reorg) Name() string { return "Reorg" }

// Close implements System.
func (r *Reorg) Close() error { return r.log.Close() }

// NewIngestor implements System.
func (r *Reorg) NewIngestor() (Ingestor, error) {
	g := r.epoch.Acquire()
	g.Unprotect()
	return &reorgIngestor{r: r, g: g}, nil
}

type reorgIngestor struct {
	r *Reorg
	g *epoch.Guard
}

func (w *reorgIngestor) Ingest(batch [][]byte) error {
	w.g.Protect()
	defer w.g.Unprotect()
	for _, rec := range batch {
		var doc map[string]any
		if err := json.Unmarshal(rec, &doc); err != nil {
			continue
		}
		// "Internal binary format": a canonical re-serialization.
		out, err := json.Marshal(doc)
		if err != nil {
			continue
		}
		spec := record.Spec{Payload: out}
		alloc, aerr := w.r.log.Allocate(w.g, spec.SizeWords())
		if aerr != nil {
			return aerr
		}
		spec.Write(alloc.Words)
		record.View{Words: alloc.Words}.SetVisible()
		w.g.Refresh()
	}
	return nil
}

func (w *reorgIngestor) Close() { w.g.Release() }
