package fishstore

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fishstore/internal/expr"
	"fishstore/internal/hashtable"
	"fishstore/internal/hlog"
	"fishstore/internal/parser"
	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/storage"
	"fishstore/internal/telemetry"
	"fishstore/internal/trace"
)

// Manifest is the checkpoint metadata written alongside the hash-table
// image (Appendix E).
type Manifest struct {
	// Tail is the log address the checkpoint covers: the hash-table image
	// contains every chain link below it, and the log is durable below it.
	Tail uint64
	// PageBits / MemPages pin the log geometry; recovery validates them.
	PageBits uint
	MemPages int
	// PSFs is the registry snapshot.
	PSFs []psf.SnapshotEntry
	// Counters restored into Stats.
	IngestedRecords int64
	IngestedBytes   int64
}

const (
	manifestFile = "MANIFEST.json"
	tableFile    = "hash.ckpt"
)

// fsyncFile is swappable so tests can observe which checkpoint artifacts are
// forced to stable media.
var fsyncFile = func(f *os.File) error { return f.Sync() }

// writeFileDurable writes path atomically: the payload goes to path+".tmp",
// is fsynced, and is renamed over path only once it is fully on stable media.
func writeFileDurable(path string, write func(*os.File) (int64, error)) (int64, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return 0, err
	}
	n, err := write(f)
	if err == nil {
		err = fsyncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path + ".tmp")
		return n, err
	}
	return n, os.Rename(path+".tmp", path)
}

// syncDir fsyncs a directory, making renames within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fsyncFile(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadManifest reads and decodes the manifest of a checkpoint directory.
func ReadManifest(dir string) (Manifest, error) {
	var m Manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("fishstore: bad manifest: %w", err)
	}
	return m, nil
}

// Checkpoint persists a consistent cut of the store into dir: the durable
// log prefix plus an image of the hash index, so recovery can skip
// rebuilding chains for everything below the checkpoint tail.
//
// The paper's C++ implementation takes a *fuzzy* checkpoint using FASTER's
// version-stamped epoch machinery; here the cut is made by briefly holding
// the store's ingestion barrier (milliseconds — the table write dominates).
// The table image holds only the index's non-zero words, so checkpoint cost
// scales with occupancy plus one pass over the table, and recovery cost
// with that image plus the log suffix ingested since the last checkpoint.
func (s *Store) Checkpoint(dir string) error {
	return s.CheckpointContext(nil, dir)
}

// CheckpointContext is Checkpoint with cancellation. The cut is abandoned at
// artifact boundaries only — a cancelled checkpoint leaves either the old
// checkpoint directory or the new one, never a half-written cut, and the
// store itself is untouched (the log flush that already landed simply makes
// the next attempt cheaper).
func (s *Store) CheckpointContext(ctx context.Context, dir string) error {
	if s.degraded.Load() {
		return ErrDegraded
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// The barrier may have been held for a while by ingestion; re-check
	// before doing any work under it.
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start := time.Now()
	tail := s.log.TailAddress()
	sp := s.tracer.StartRoot("checkpoint")
	sp.SetUint("tail", tail)
	defer sp.End()
	s.metrics.event("checkpoint.begin", trace.Uint("tail", tail))
	fsp := sp.Child("checkpoint.flush")
	//lint:ignore puborder the checkpoint barrier is the semantic: ingestion holds ckptMu shared and MUST quiesce until the flush lands, or the manifest's durable-below-tail claim is false
	if err := s.log.FlushTail(); err != nil {
		fsp.End()
		// The device permanently refused a log write (it is fail-stop): no
		// future checkpoint can succeed and ingestion can no longer be
		// persisted. Degrade.
		return s.enterDegraded(fmt.Errorf("checkpoint flush: %w", err))
	}
	// The manifest claims the log is durable below tail; force the device's
	// write cache to stable media before any artifact can make that claim.
	//lint:ignore puborder same barrier: the sync must complete before ingestion resumes past the checkpointed tail
	if err := storage.Sync(s.log.Device()); err != nil {
		fsp.End()
		return s.enterDegraded(fmt.Errorf("checkpoint log sync: %w", err))
	}
	fsp.End()

	// The flush and sync are never abandoned mid-way (the durability barrier
	// must hold), but the expensive table image can be skipped entirely.
	if err := ctxErr(ctx); err != nil {
		return err
	}

	// Both artifacts are written to a temp file, fsynced, then renamed over
	// the previous image, so a crash at any point leaves either the old
	// checkpoint or the new one — never a half-written table or manifest.
	// The table is renamed first: a new table with the old manifest is still
	// consistent, because replay's head installation is a monotonic CAS.
	tablePath := filepath.Join(dir, tableFile)
	tbsp := sp.Child("checkpoint.table")
	tableBytes, err := writeFileDurable(tablePath, func(f *os.File) (int64, error) {
		return s.table.WriteTo(f)
	})
	tbsp.SetInt("bytes", tableBytes)
	tbsp.End()
	if err != nil {
		return fmt.Errorf("fishstore: checkpoint table: %w", err)
	}

	// Last abandon point: the table rename already happened, but a new table
	// under the old manifest is still a consistent checkpoint.
	if err := ctxErr(ctx); err != nil {
		return err
	}

	snap, err := s.registry.Snapshot()
	if err != nil {
		return err
	}
	m := Manifest{
		Tail:            tail,
		PageBits:        s.opts.PageBits,
		MemPages:        s.opts.MemPages,
		PSFs:            snap,
		IngestedRecords: s.ingestedRecords.Load(),
		IngestedBytes:   s.ingestedBytes.Load(),
	}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	msp := sp.Child("checkpoint.manifest")
	if _, err := writeFileDurable(filepath.Join(dir, manifestFile), func(f *os.File) (int64, error) {
		n, werr := f.Write(raw)
		return int64(n), werr
	}); err != nil {
		msp.End()
		return err
	}
	// The renames themselves live in the directory; sync it so the new
	// checkpoint survives a crash of the whole machine.
	err = syncDir(dir)
	msp.End()
	if err != nil {
		return err
	}

	elapsed := time.Since(start)
	written := tableBytes + int64(len(raw))
	s.tele.RecordOp(telemetry.OpCheckpoint, elapsed) // exported as fishstore_checkpoint_seconds
	s.metrics.checkpoints.Inc()
	s.metrics.checkpointBytes.Observe(written)
	s.metrics.event("checkpoint.end",
		trace.Uint("tail", tail), trace.Int("bytes", written), trace.Float("seconds", elapsed.Seconds()))
	return nil
}

// RecoverOptions configures Recover.
type RecoverOptions struct {
	// Options are the store options; Device must be the device holding the
	// log (it is reused, not truncated).
	Options Options
	// CustomPSFs resolves custom PSF functions by name when the checkpoint
	// contains custom registrations.
	CustomPSFs map[string]func(*parser.Parsed) expr.Value
}

// RecoveryInfo reports what recovery did.
type RecoveryInfo struct {
	// CheckpointTail is the manifest's covered address.
	CheckpointTail uint64
	// RecoveredTail is the final tail after replaying the durable suffix.
	RecoveredTail uint64
	// ReplayedRecords is the number of records re-linked from the suffix.
	ReplayedRecords int64
}

// Recover rebuilds a Store from a checkpoint directory and the log device
// (Appendix E): built as Open builds it, plus the checkpoint's registry
// snapshot and hash-table image, which restores every chain below the
// checkpoint tail. The durable suffix beyond it is replayed in one device
// pass that stops at the first record not intact; the log reopens there.
func Recover(dir string, ropts RecoverOptions) (*Store, RecoveryInfo, error) {
	var info RecoveryInfo
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, info, err
	}
	o, err := ropts.Options.withDefaults()
	if err != nil {
		return nil, info, err
	}
	if o.Device == nil {
		return nil, info, fmt.Errorf("fishstore: recovery requires the log device")
	}
	if o.PageBits != m.PageBits || o.MemPages != m.MemPages {
		// Geometry is part of the address space; honor the manifest.
		o.PageBits = m.PageBits
		o.MemPages = m.MemPages
	}
	// As in Open, the store exists before its log so the flush hook can
	// degrade it on permanent failures.
	s := newStore(o, hashtable.New(1, 1))
	recoveryStart := time.Now()

	rsp := s.tracer.StartRoot("recover")
	rsp.SetUint("checkpoint_tail", m.Tail)
	defer rsp.End()

	info.CheckpointTail = m.Tail

	// 1. Restore the registry snapshot and the hash-table image.
	if err := s.registry.Restore(m.PSFs, ropts.CustomPSFs); err != nil {
		return nil, info, err
	}
	tsp := rsp.Child("recover.table")
	err = readTableImage(s.table, filepath.Join(dir, tableFile))
	tsp.End()
	if err != nil {
		return nil, info, err
	}

	// 2. Replay the durable suffix beyond the checkpoint; where it ends is
	// the recovered tail.
	rpsp := rsp.Child("recover.replay")
	end, replayed, replayedBytes, err := s.replay(m.Tail)
	rpsp.SetUint("durable_end", end)
	rpsp.SetInt("replayed", replayed)
	rpsp.End()
	if err != nil {
		return nil, info, err
	}

	// 3. Reopen the log at the recovered tail.
	lsp := rsp.Child("recover.log")
	log, err := hlog.Recover(s.logConfig(), end)
	lsp.End()
	if err != nil {
		return nil, info, err
	}
	s.log = log
	s.wireObservability()

	info.ReplayedRecords = replayed
	info.RecoveredTail = end
	s.ingestedRecords.Store(m.IngestedRecords + replayed)
	s.ingestedBytes.Store(m.IngestedBytes + replayedBytes)

	rsp.SetUint("recovered_tail", end)
	elapsed := time.Since(recoveryStart)
	s.metrics.recoverySeconds.Observe(int64(elapsed))
	s.metrics.recoveryReplayed.Add(replayed)
	s.metrics.event("recovery.end",
		trace.Uint("checkpoint_tail", m.Tail), trace.Uint("recovered_tail", end),
		trace.Int("replayed", replayed), trace.Float("seconds", elapsed.Seconds()))
	return s, info, nil
}

// readTableImage restores the checkpoint's hash-table image at path into t.
func readTableImage(t *hashtable.Table, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := t.ReadFrom(f); err != nil {
		return fmt.Errorf("fishstore: restoring table: %w", err)
	}
	return nil
}

// chainHash is the hash of the chain the key pointer kp, in the record at
// base, belongs on: its property's hash, or for a sharded PSF the hash of
// the shard the record's address selects.
func (s *Store) chainHash(kp record.KeyPointer, v record.View, base uint64) uint64 {
	val, id := v.ValueBytes(kp), kp.PSFID()
	if def, ok := s.registry.Lookup(id); ok && def.ShardCount() > 1 {
		shards := def.ShardCount()
		return psf.ShardHash(id, val, shardOf(base, shards), shards)
	}
	return hashtable.HashProperty(id, val)
}

// replay re-links the durable log suffix from `from` on, reading it in one
// device pass: walkDeviceLog validates each record as it reads it and stops
// at the first one that is not intact (a torn tail page, a bad checksum),
// and that address is the end it returns. Records arrive in ascending
// address order, so installing each key pointer as its chain's head leaves
// every head at the highest (= most recent) chain entry; prev pointers
// inside the records are already durable and never link forward. Fillers
// and invalidated records are skipped, as every scan skips them. replay
// returns the number of records re-linked and their payload bytes (indirect
// records reference payloads already counted at their original address).
// A device read error aborts it: a fault must never pass for the log's end.
func (s *Store) replay(from uint64) (end uint64, replayed, replayedBytes int64, err error) {
	var cbErr error
	end, _, _, err = walkDeviceLog(s.opts.Device, s.opts.PageBits, from, 0, func(addr uint64, h record.Header, v record.View) bool {
		if h.Filler() || h.Invalid() {
			return true
		}
		replayed++
		if !h.Indirect() {
			replayedBytes += int64(v.PayloadLen())
		}
		for i := 0; i < h.NumPtrs(); i++ {
			kp := v.KeyPointerAt(i)
			slot, ferr := s.table.FindOrCreate(s.chainHash(kp, v, addr))
			if ferr != nil {
				cbErr = fmt.Errorf("fishstore: replay at %d: %w", addr, ferr)
				return false
			}
			kptAddr := addr + uint64(v.PointerWordIndex(i))*8
			for {
				old := slot.Load()
				if hashtable.Unpack(old).Address >= kptAddr {
					break // already restored at or beyond us
				}
				if slot.CompareAndSwapAddress(old, kptAddr) {
					break
				}
			}
		}
		return true
	})
	if err == nil {
		err = cbErr
	}
	return end, replayed, replayedBytes, err
}
