package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fishstore"
	"fishstore/internal/metrics"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
)

// This file implements the crash/recovery harness for Appendix E's
// durability contract: ingest under concurrent load, cut power at a
// randomized device write, recover from the surviving image, and assert
// that (1) the log verifier finds no corruption — every PSF chain has no
// forward links, no dangling key pointers, and no record whose payload
// fails its checksum, (2) each worker's surviving records form a contiguous
// prefix of what it ingested (every hash chain is a suffix of its pre-crash
// self — a crash can only truncate history, never resurrect, reorder, or
// invent records), (3) everything acknowledged by a successful checkpoint
// survives, (4) index scans and full scans agree on the recovered store and
// NO scan — index or full — ever surfaces a torn or corrupt payload, and
// (5) the recovered store accepts new ingestion. Recovery runs with
// VerifyOnRead so even a record that somehow slipped past the durable-end
// probe would be quarantined rather than surfaced; the harness then asserts
// the quarantine count is zero — recovery must truncate corruption away, not
// paper over it.

// CrashConfig scales a crash/recovery run.
type CrashConfig struct {
	// Seed derives every per-cut fault schedule; a fixed seed replays the
	// same cut points.
	Seed int64
	// Cuts is the number of randomized power-cut rounds.
	Cuts int
	// Workers is the number of concurrent ingestion sessions per round.
	Workers int
	// PreRecords is ingested per worker before the guaranteed checkpoint.
	PreRecords int
	// PostRecords is ingested per worker while the cut is armed.
	PostRecords int
	// CheckpointEvery checkpoints after every n post-phase batches (0
	// disables the concurrent checkpoints).
	CheckpointEvery int
	// MaxCutWrite bounds the randomized cut ordinal (device writes after
	// arming). 0 picks a bound matched to the workload size.
	MaxCutWrite int64
	// Out, when non-nil, receives one progress line per round.
	Out io.Writer
	// ArtifactDir, when non-empty, receives crash-analysis artifacts:
	// FLIGHT.jsonl (the pre-crash store's flight-recorder dump, overwritten
	// every round so a failing run leaves the failing round's events),
	// FLIGHT_RECOVERY.jsonl (auto-dumped when the recovered store's
	// verifier finds corruption), and FSCK_REPORT.txt (written by
	// RunCrashRecovery when an invariant fails). CI uploads the directory
	// as a workflow artifact on failure.
	ArtifactDir string
}

// DefaultCrashConfig returns a configuration sized so cuts land across the
// whole ingest/checkpoint cycle: before the first post-phase flush, mid
// page flush, during checkpoint tail flushes, and after the workload (the
// harness cuts power at the end if the armed write was never reached).
func DefaultCrashConfig() CrashConfig {
	return CrashConfig{
		Seed:            1,
		Cuts:            50,
		Workers:         3,
		PreRecords:      40,
		PostRecords:     60,
		CheckpointEvery: 16,
		MaxCutWrite:     24,
	}
}

// CrashReport aggregates a run.
type CrashReport struct {
	// Cuts is the number of rounds executed; CutsFired counts rounds where
	// the armed write was reached (vs. cut at workload end).
	Cuts, CutsFired int
	// CheckpointsOK / CheckpointsFailed count concurrent-phase checkpoints
	// (failures after the cut are expected and harmless).
	CheckpointsOK, CheckpointsFailed int
	// Replayed is the total suffix records replayed across recoveries.
	Replayed int64
	// MinSurvivors / MaxSurvivors bound the per-round surviving record
	// count, showing the cuts actually sampled different crash points.
	MinSurvivors, MaxSurvivors int
}

type crashEvent struct {
	Worker int `json:"worker"`
	Seq    int `json:"seq"`
}

func crashPayload(worker, seq int) []byte {
	typ := "PushEvent"
	if seq%2 == 1 {
		typ = "IssuesEvent"
	}
	return []byte(fmt.Sprintf(
		`{"id": %d, "type": %q, "repo": {"name": "spark", "stars": %d}, "worker": %d, "seq": %d}`,
		worker*1_000_000+seq, typ, seq%97, worker, seq))
}

// RunCrashRecovery executes cfg.Cuts randomized power-cut rounds and
// returns an aggregate report. The first violated invariant aborts the run
// with an error naming the round (re-runnable via its seed) and the check.
func RunCrashRecovery(cfg CrashConfig) (CrashReport, error) {
	if cfg.Cuts <= 0 {
		cfg.Cuts = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.PreRecords <= 0 {
		cfg.PreRecords = 40
	}
	if cfg.PostRecords <= 0 {
		cfg.PostRecords = 60
	}
	if cfg.MaxCutWrite <= 0 {
		cfg.MaxCutWrite = 24
	}
	var rep CrashReport
	rep.MinSurvivors = int(^uint(0) >> 1)
	for i := 0; i < cfg.Cuts; i++ {
		seed := cfg.Seed*1_000_003 + int64(i)
		if err := runOneCut(cfg, seed, &rep); err != nil {
			err = fmt.Errorf("cut round %d (seed %d): %w", i, seed, err)
			writeFsckReport(cfg, err)
			return rep, err
		}
		rep.Cuts++
	}
	return rep, nil
}

// writeFsckReport records a failed run's invariant violation next to the
// flight dump, so CI can upload both as one artifact.
func writeFsckReport(cfg CrashConfig, runErr error) {
	if cfg.ArtifactDir == "" {
		return
	}
	body := fmt.Sprintf("crash harness invariant failure\nconfig: %+v\n\n%v\n", cfg, runErr)
	// Best-effort inside a failure path: the report only enriches the dump.
	_ = os.WriteFile(filepath.Join(cfg.ArtifactDir, "FSCK_REPORT.txt"), []byte(body), 0o644)
}

func runOneCut(cfg CrashConfig, seed int64, rep *CrashReport) error {
	rng := rand.New(rand.NewSource(seed))
	mem := storage.NewMem()
	// The fault device stamps the cut into the store's event stream, so a
	// flight dump shows the cut in sequence with the flushes and checkpoints
	// that preceded it. The cut is armed only after Open assigns s.
	var s *fishstore.Store
	fd := storage.NewFaultDevice(mem, storage.FaultConfig{Seed: seed, OnPowerCut: func() {
		s.Event("fault.powercut", trace.Int("seed", seed))
	}})
	opts := fishstore.Options{Device: fd, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8, Metrics: metrics.NewRegistry()}

	ckptDir, err := os.MkdirTemp("", "fishstore-crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckptDir)

	s, ids, err := OpenFishStore(crashWorkload(), opts)
	if err != nil {
		return err
	}
	idRepo, idPred := ids[0], ids[1]

	// Pre phase: every worker ingests PreRecords, then one checkpoint that
	// must succeed — everything below it is contractually durable.
	sessions := make([]*fishstore.Session, cfg.Workers)
	for w := range sessions {
		sessions[w] = s.NewSession()
		for seq := 0; seq < cfg.PreRecords; seq++ {
			if _, err := sessions[w].Ingest([][]byte{crashPayload(w, seq)}); err != nil {
				return fmt.Errorf("pre-phase ingest: %w", err)
			}
		}
	}
	if err := s.Checkpoint(ckptDir); err != nil {
		return fmt.Errorf("pre-phase checkpoint: %w", err)
	}

	// Concurrent phase under an armed power cut: workers ingest while the
	// main goroutine keeps checkpointing into the same directory (exercising
	// the temp-file + rename + fsync protection of the artifacts).
	cutAt := 1 + rng.Int63n(cfg.MaxCutWrite)
	fd.ArmPowerCut(cutAt)
	var wg sync.WaitGroup
	var batches atomic.Int64
	for w := range sessions {
		wg.Add(1)
		go func(w int, sess *fishstore.Session) {
			defer wg.Done()
			for seq := cfg.PreRecords; seq < cfg.PreRecords+cfg.PostRecords; seq++ {
				if _, err := sess.Ingest([][]byte{crashPayload(w, seq)}); err != nil {
					return // the crash reached this session
				}
				batches.Add(1)
			}
		}(w, sessions[w])
	}
	if cfg.CheckpointEvery > 0 {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		next := int64(cfg.CheckpointEvery)
		for alive := true; alive; {
			select {
			case <-done:
				alive = false
			default:
				if batches.Load() < next {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				next += int64(cfg.CheckpointEvery)
				if err := s.Checkpoint(ckptDir); err != nil {
					rep.CheckpointsFailed++
					if !fd.IsCut() {
						return fmt.Errorf("pre-cut checkpoint failed: %w", err)
					}
				} else {
					rep.CheckpointsOK++
				}
			}
		}
	}
	wg.Wait()
	if fd.IsCut() {
		rep.CutsFired++
	} else {
		// The workload outran the armed write: cut at the very end so every
		// round still crashes and recovers.
		fd.CutNow()
	}
	for _, sess := range sessions {
		sess.Close()
	}
	// The cut has fired by now; the flight ring holds the events leading up
	// to it. Dump it before tearing the store down so a failed recovery
	// below still leaves the pre-crash timeline on disk.
	if cfg.ArtifactDir != "" {
		if f, ferr := os.Create(filepath.Join(cfg.ArtifactDir, "FLIGHT.jsonl")); ferr == nil {
			_ = s.DumpFlight(f)
			_ = f.Close()
		}
	}
	_ = s.Close() // post-cut flush errors are the crash itself

	// Recovery runs against the surviving image (the unwrapped device): the
	// machine rebooted, the fault injector is gone.
	ropts := fishstore.RecoverOptions{
		Options: fishstore.Options{Device: mem, TableBuckets: 1 << 8, VerifyOnRead: true},
	}
	if cfg.ArtifactDir != "" {
		// If the verifier finds corruption the recovered store auto-dumps
		// its own flight ring (replay-era events) alongside the pre-crash one.
		if f, ferr := os.Create(filepath.Join(cfg.ArtifactDir, "FLIGHT_RECOVERY.jsonl")); ferr == nil {
			defer f.Close()
			ropts.Options.FlightDumpWriter = f
		}
	}
	s2, info, err := fishstore.Recover(ckptDir, ropts)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer s2.Close()
	rep.Replayed += info.ReplayedRecords

	// (1) fsck: no forward links, no dangling pointers, no torn records.
	vrep, err := s2.VerifyLog(fishstore.VerifyOptions{})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !vrep.OK() {
		return fmt.Errorf("verify: %s", vrep.Corruption)
	}

	// (2)+(3): surviving records form a contiguous per-worker prefix (chains
	// are suffixes of their pre-crash selves) covering at least the
	// checkpointed pre phase.
	maxSeq := make([]int, cfg.Workers)
	for w := range maxSeq {
		maxSeq[w] = -1
	}
	survivors := 0
	var scanErr error
	fullStats, err := s2.Scan(fishstore.PropertyString(idRepo, "spark"),
		fishstore.ScanOptions{Mode: fishstore.ScanForceFull}, func(r fishstore.Record) bool {
			var ev crashEvent
			if err := json.Unmarshal(r.Payload, &ev); err != nil {
				// Checksums close the torn-record exposure: a record whose
				// payload was torn fails its seal, recovery truncates the
				// durable end before it, and no scan may ever surface it.
				scanErr = fmt.Errorf("full scan surfaced a record with corrupt payload at %d: %v", r.Address, err)
				return false
			}
			if ev.Worker < 0 || ev.Worker >= cfg.Workers {
				scanErr = fmt.Errorf("recovered record at %d from unknown worker %d", r.Address, ev.Worker)
				return false
			}
			if ev.Seq != maxSeq[ev.Worker]+1 {
				scanErr = fmt.Errorf("worker %d: recovered seq %d after %d (history not a prefix)",
					ev.Worker, ev.Seq, maxSeq[ev.Worker])
				return false
			}
			maxSeq[ev.Worker] = ev.Seq
			survivors++
			return true
		})
	if err != nil {
		return fmt.Errorf("full scan: %w", err)
	}
	if scanErr != nil {
		return scanErr
	}
	if fullStats.Quarantined != 0 {
		return fmt.Errorf("full scan quarantined %d records on a freshly recovered store; recovery must truncate corruption, not admit it", fullStats.Quarantined)
	}
	pushes := 0
	for w, m := range maxSeq {
		if m+1 < cfg.PreRecords {
			return fmt.Errorf("worker %d: only %d records survived, %d were checkpointed", w, m+1, cfg.PreRecords)
		}
		pushes += (m + 2) / 2 // even seqs are PushEvents
	}
	if survivors < rep.MinSurvivors {
		rep.MinSurvivors = survivors
	}
	if survivors > rep.MaxSurvivors {
		rep.MaxSurvivors = survivors
	}

	// (4) the restored + replayed index agrees exactly with the full scan.
	// Before record checksums, a power cut could tear the FINAL record of
	// the durable log so that its header, key pointers, and value region
	// survived — structurally valid and index-reachable — while its payload
	// was zeroed, and this check had to tolerate one such record. The seal
	// closes that hole: a torn payload fails its checksum, the durable-end
	// probe truncates the log before it, and any record either scan surfaces
	// with an unparseable payload is an immediate failure.
	repoCount, err := indexScanSet(s2, fishstore.PropertyString(idRepo, "spark"))
	if err != nil {
		return fmt.Errorf("index scan: %w", err)
	}
	if repoCount != survivors {
		return fmt.Errorf("index scan found %d records, full scan %d", repoCount, survivors)
	}
	predCount, err := indexScanSet(s2, fishstore.PropertyBool(idPred, true))
	if err != nil {
		return fmt.Errorf("predicate index scan: %w", err)
	}
	if predCount != pushes {
		return fmt.Errorf("predicate index scan found %d PushEvents, payloads say %d",
			predCount, pushes)
	}

	// (5) the recovered store is live: it ingests and indexes new records.
	sess := s2.NewSession()
	if _, err := sess.Ingest([][]byte{crashPayload(0, 1_000_000)}); err != nil {
		return fmt.Errorf("post-recovery ingest: %w", err)
	}
	sess.Close()
	after, err := indexScanSet(s2, fishstore.PropertyString(idRepo, "spark"))
	if err != nil {
		return fmt.Errorf("post-recovery scan: %w", err)
	}
	if after != survivors+1 {
		var idx, full []string
		// Best-effort diagnostics inside a failure path: a scan error here
		// only degrades the dump, so both results are deliberately dropped.
		_, _ = s2.Scan(fishstore.PropertyString(idRepo, "spark"),
			fishstore.ScanOptions{Mode: fishstore.ScanForceIndex}, func(r fishstore.Record) bool {
				var ev crashEvent
				if json.Unmarshal(r.Payload, &ev) != nil {
					idx = append(idx, fmt.Sprintf("corrupt@%d", r.Address))
				} else {
					idx = append(idx, fmt.Sprintf("w%d/s%d@%d", ev.Worker, ev.Seq, r.Address))
				}
				return true
			})
		_, _ = s2.Scan(fishstore.PropertyString(idRepo, "spark"),
			fishstore.ScanOptions{Mode: fishstore.ScanForceFull}, func(r fishstore.Record) bool {
				var ev crashEvent
				if json.Unmarshal(r.Payload, &ev) != nil {
					full = append(full, fmt.Sprintf("corrupt@%d", r.Address))
				} else {
					full = append(full, fmt.Sprintf("w%d/s%d@%d", ev.Worker, ev.Seq, r.Address))
				}
				return true
			})
		return fmt.Errorf("post-recovery index scan found %d, want %d\nrecovery: %+v\nidx(%d): %v\nfull(%d): %v\nstats: %+v",
			after, survivors+1, info, len(idx), idx, len(full), full, s2.Stats())
	}

	if cfg.Out != nil {
		fmt.Fprintf(cfg.Out, "cut seed=%d armed=%d fired=%v survivors=%d replayed=%d\n",
			seed, cutAt, fd.IsCut(), survivors, info.ReplayedRecords)
	}
	return nil
}

// indexScanSet counts one index scan's matches. Every surfaced payload must
// parse — an index-reachable record with a torn or corrupt payload cannot
// exist once checksums gate the durable end — and nothing may be quarantined
// on a freshly recovered store.
func indexScanSet(s *fishstore.Store, prop fishstore.Property) (int, error) {
	var n int
	var bad error
	st, err := s.Scan(prop, fishstore.ScanOptions{Mode: fishstore.ScanForceIndex},
		func(r fishstore.Record) bool {
			var ev crashEvent
			if uerr := json.Unmarshal(r.Payload, &ev); uerr != nil {
				bad = fmt.Errorf("index scan surfaced a record with corrupt payload at %d: %v", r.Address, uerr)
				return false
			}
			n++
			return true
		})
	if err != nil {
		return n, err
	}
	if bad != nil {
		return n, bad
	}
	if st.Quarantined != 0 {
		return n, fmt.Errorf("index scan quarantined %d records on a freshly recovered store", st.Quarantined)
	}
	return n, nil
}

// crashWorkload is the minimal workload the crash harness ingests: one
// projection PSF (repo.name) and one predicate PSF (type == "PushEvent").
func crashWorkload() Workload {
	return Workload{
		Name:        "crash",
		Parser:      nil, // default parser
		Projections: []string{"repo.name"},
		Predicates:  []string{`type == "PushEvent"`},
	}
}

// errIsPowerCut reports whether err is (or wraps) the injected power cut.
func errIsPowerCut(err error) bool { return errors.Is(err, storage.ErrPowerCut) }
