package harness

import (
	"context"
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
)

// This file implements the resource-exhaustion chaos harness: randomized
// schedules that combine a capacity-capped device (ENOSPC mid-flush), a
// device that suddenly turns slow, admission limits small enough to reject
// and queue real traffic, cancellation storms against ingestion and scans,
// slow subscribers under every overflow policy, and concurrent retention
// truncation. After every schedule the harness asserts the survival
// contract: the store is either alive or in a *managed* state it can leave
// (log-full recovers via RecoverLogSpace, never sticky-degraded), the log
// verifier finds no corruption, index scans and full scans agree, no epoch
// guard leaked, and ingestion still works. One failed invariant aborts the
// run naming the schedule's seed so it can be replayed alone.

// ChaosConfig scales a resource-exhaustion chaos run.
type ChaosConfig struct {
	// Seed derives every schedule; a fixed seed replays the same faults.
	Seed int64
	// Schedules is the number of randomized rounds.
	Schedules int
	// Workers is the number of concurrent ingestion sessions per round.
	Workers int
	// Records is ingested per worker per round (attempted; rejections and
	// cancellations shed some).
	Records int
	// Out, when non-nil, receives one progress line per round.
	Out io.Writer
	// ArtifactDir, when non-empty, receives FLIGHT_CHAOS.jsonl (the failing
	// round's flight-recorder dump) and CHAOS_REPORT.txt on failure.
	ArtifactDir string
}

// DefaultChaosConfig sizes a run so every fault class fires across the
// schedule set while the whole run stays test-suite friendly.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:      1,
		Schedules: 50,
		Workers:   3,
		Records:   80,
	}
}

// ChaosReport aggregates a run.
type ChaosReport struct {
	// Schedules executed; per-fault-class counts say how often each class
	// was armed (a healthy run arms every class many times).
	Schedules                           int
	CapRounds, SlowRounds, CancelRounds int
	SubRounds, TruncRounds, LimitRounds int
	// Rejected counts ErrBusy admissions, Cancelled counts context aborts,
	// LogFullHits counts batches that saw ErrLogFull before recovery,
	// Recoveries counts successful RecoverLogSpace calls, Dropped counts
	// subscription drops. All are expected to be non-zero across a full
	// run — a chaos harness that never trips anything tests nothing.
	Rejected, Cancelled, LogFullHits int64
	Recoveries, Dropped              int64
	// Ingested is the total records that made it into a store.
	Ingested int64
}

// chaosSchedule is one round's armed fault set.
type chaosSchedule struct {
	seed        int64
	capBytes    int64         // >0: device capacity cap (ENOSPC when exceeded)
	writeDelay  time.Duration // >0: per-write stall armed mid-round
	readDelay   time.Duration // >0: per-read stall armed mid-round
	cancelAfter int           // >0: cancel worker contexts after this many batches
	subPolicy   fishstore.SubscribePolicy
	subscribe   bool // attach a buffer-1 subscriber
	truncate    bool // concurrent TruncateUntil calls
	limits      bool // tiny admission budget + concurrent scans
}

func makeSchedule(rng *rand.Rand, seed int64) chaosSchedule {
	sc := chaosSchedule{seed: seed}
	// Every round gets at least one fault; most get several.
	if rng.Intn(2) == 0 {
		// Small enough that the workload overruns it mid-round and retention
		// reclaim must run to finish.
		sc.capBytes = 10<<10 + rng.Int63n(12<<10)
	}
	if rng.Intn(3) == 0 {
		sc.writeDelay = time.Duration(rng.Intn(120)) * time.Microsecond
	}
	if rng.Intn(4) == 0 {
		sc.readDelay = time.Duration(rng.Intn(80)) * time.Microsecond
	}
	if rng.Intn(2) == 0 {
		sc.cancelAfter = 1 + rng.Intn(20)
	}
	if rng.Intn(2) == 0 {
		sc.subscribe = true
		sc.subPolicy = []fishstore.SubscribePolicy{
			fishstore.DropNewest, fishstore.DropOldest, fishstore.Block,
		}[rng.Intn(3)]
	}
	sc.truncate = rng.Intn(3) == 0
	sc.limits = rng.Intn(2) == 0
	if sc.capBytes == 0 && sc.cancelAfter == 0 && !sc.subscribe &&
		!sc.truncate && !sc.limits && sc.writeDelay == 0 && sc.readDelay == 0 {
		sc.limits = true
	}
	return sc
}

// RunResourceChaos executes cfg.Schedules randomized resource-exhaustion
// rounds. The first violated invariant aborts the run with an error naming
// the round and seed.
func RunResourceChaos(cfg ChaosConfig) (ChaosReport, error) {
	if cfg.Schedules <= 0 {
		cfg.Schedules = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Records <= 0 {
		cfg.Records = 40
	}
	var rep ChaosReport
	for i := 0; i < cfg.Schedules; i++ {
		seed := cfg.Seed*2_000_003 + int64(i)
		sc := makeSchedule(rand.New(rand.NewSource(seed)), seed)
		if err := runOneChaos(cfg, sc, &rep); err != nil {
			err = fmt.Errorf("chaos round %d (seed %d, schedule %+v): %w", i, seed, sc, err)
			writeChaosReport(cfg, err)
			return rep, err
		}
		rep.Schedules++
		if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, "chaos round %d ok (seed %d)\n", i, seed)
		}
	}
	return rep, nil
}

func writeChaosReport(cfg ChaosConfig, runErr error) {
	if cfg.ArtifactDir == "" {
		return
	}
	body := fmt.Sprintf("resource-exhaustion chaos invariant failure\nconfig: %+v\n\n%v\n", cfg, runErr)
	_ = os.WriteFile(filepath.Join(cfg.ArtifactDir, "CHAOS_REPORT.txt"), []byte(body), 0o644)
}

func runOneChaos(cfg ChaosConfig, sc chaosSchedule, rep *ChaosReport) error {
	rng := rand.New(rand.NewSource(sc.seed))
	reg := metrics.NewRegistry()
	fd := storage.NewFaultDevice(nil, storage.FaultConfig{
		Seed:          sc.seed,
		CapacityBytes: sc.capBytes,
	})
	opts := fishstore.Options{
		Device: fd, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8,
		Metrics: reg,
		// Retention small enough that reclaim actually frees space under the
		// capacity cap; AutoRecover makes ErrLogFull transparent to workers.
		Retention: &fishstore.Retention{MaxLiveBytes: 8 << 10, AutoRecover: true},
	}
	if sc.capBytes > 0 {
		rep.CapRounds++
	}
	if sc.writeDelay > 0 || sc.readDelay > 0 {
		rep.SlowRounds++
	}
	if sc.cancelAfter > 0 {
		rep.CancelRounds++
	}
	if sc.subscribe {
		rep.SubRounds++
	}
	if sc.truncate {
		rep.TruncRounds++
	}
	if sc.limits {
		rep.LimitRounds++
		opts.Limits = &fishstore.Limits{
			MaxInFlightIngestBytes: 2 << 10,
			MaxConcurrentScans:     1,
			// A third of limit rounds get MaxWait 0: overlapping scans are
			// rejected outright instead of queued.
			MaxWait: time.Duration(rng.Intn(3)) * time.Millisecond,
		}
	}

	s, ids, err := OpenFishStore(crashWorkload(), opts)
	if err != nil {
		return err
	}
	defer s.Close()
	idRepo := ids[0]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sub *fishstore.Subscription
	if sc.subscribe {
		sub = s.SubscribeWith(fishstore.PropertyString(idRepo, "spark"), fishstore.SubscribeOptions{
			Buffer: 1, Policy: sc.subPolicy, Context: ctx,
		})
		if sc.subPolicy == fishstore.Block {
			// A Block subscriber with no consumer wedges ingestion; drain it
			// slowly so backpressure is exercised without a deadlock, and
			// rely on ctx cancellation to release any sender stalled at the
			// end of the round. (Own rng: rand.Rand is not goroutine-safe.)
			go func() {
				drainRng := rand.New(rand.NewSource(sc.seed + 1))
				for range sub.Records() {
					time.Sleep(time.Duration(drainRng.Intn(50)) * time.Microsecond)
				}
			}()
		}
	}

	var wg sync.WaitGroup
	var batches atomic.Int64
	// Round-local counters shared by the worker/scanner goroutines; folded
	// into rep plainly after wg.Wait so the report itself is never touched
	// with atomics (its consumers read it as a plain struct).
	var ingested, rejected, cancelled, logFullHits atomic.Int64
	errCh := make(chan error, cfg.Workers+4)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			for seq := 0; seq < cfg.Records; seq++ {
				_, err := sess.IngestContext(ctx, [][]byte{crashPayload(w, seq)})
				switch {
				case err == nil:
					ingested.Add(1)
				case errors.Is(err, fishstore.ErrBusy):
					rejected.Add(1)
				case errors.Is(err, context.Canceled):
					cancelled.Add(1)
					return
				case errors.Is(err, fishstore.ErrLogFull):
					// Auto-recovery could not free enough yet (another worker
					// holds the reclaim lock, or live data exceeds capacity);
					// the state is managed, keep going.
					logFullHits.Add(1)
				default:
					errCh <- fmt.Errorf("worker %d seq %d: unexpected ingest error: %w", w, seq, err)
					return
				}
				batches.Add(1)
			}
		}(w)
	}

	// Concurrent scan pressure: two scanners racing ingestion and each
	// other (with MaxConcurrentScans 1, overlap means queueing or ErrBusy),
	// some with contexts that get cancelled.
	for sg := 0; sg < 2; sg++ {
		wg.Add(1)
		go func(sg int) {
			defer wg.Done()
			scanRng := rand.New(rand.NewSource(sc.seed + 2 + int64(sg)))
			for i := 0; i < 6; i++ {
				sctx := ctx
				var scancel context.CancelFunc
				if sc.cancelAfter > 0 && i%2 == 1 {
					sctx, scancel = context.WithTimeout(ctx, time.Duration(scanRng.Intn(400))*time.Microsecond)
				}
				_, err := s.ScanContext(sctx, fishstore.PropertyString(idRepo, "spark"),
					fishstore.ScanOptions{}, func(r fishstore.Record) bool { return true })
				if scancel != nil {
					scancel()
				}
				switch {
				case err == nil:
				case errors.Is(err, fishstore.ErrBusy):
					rejected.Add(1)
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
				default:
					errCh <- fmt.Errorf("scanner %d scan %d: unexpected error: %w", sg, i, err)
					return
				}
			}
		}(sg)
	}

	// Concurrent retention truncation, fighting the auto-reclaim path for
	// the same lock and moving the chain floor under live scans.
	if sc.truncate {
		wg.Add(1)
		go func() {
			defer wg.Done()
			truncRng := rand.New(rand.NewSource(sc.seed + 3))
			for i := 0; i < 5; i++ {
				time.Sleep(time.Duration(truncRng.Intn(300)) * time.Microsecond)
				tail := s.Stats().TailAddress
				if tail > 8<<10 {
					// Page-align the point: truncation must land on a record
					// boundary, and pages always start with one (PageBits 12).
					floor := (tail - 8<<10) &^ ((1 << 12) - 1)
					if err := s.TruncateUntil(floor); err != nil {
						errCh <- fmt.Errorf("concurrent truncate: %w", err)
						return
					}
				}
			}
		}()
	}

	// Mid-round fault arming: slow device after some progress, cancellation
	// storm after cancelAfter batches.
	if sc.writeDelay > 0 {
		fd.SetWriteDelay(sc.writeDelay)
	}
	if sc.readDelay > 0 {
		fd.SetReadDelay(sc.readDelay)
	}
	if sc.cancelAfter > 0 {
		// Bounded spin: if the workload dies early (a worker hit an
		// unexpected error) the storm must still fire so wg.Wait returns.
		deadline := time.Now().Add(5 * time.Second)
		for batches.Load() < int64(sc.cancelAfter) && time.Now().Before(deadline) {
			time.Sleep(20 * time.Microsecond)
		}
		cancel()
	}
	wg.Wait()
	rep.Ingested += ingested.Load()
	rep.Rejected += rejected.Load()
	rep.Cancelled += cancelled.Load()
	rep.LogFullHits += logFullHits.Load()
	// Lift the delays so verification runs at full speed.
	fd.SetWriteDelay(0)
	fd.SetReadDelay(0)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	if sub != nil {
		rep.Dropped += sub.Dropped()
		sub.Cancel()
	}
	cancel()

	// Survival contract. The store must never be sticky-degraded: every
	// fault this harness injects is a resource fault, not data loss.
	if deg, cause := s.Degraded(); deg {
		return fmt.Errorf("store sticky-degraded after resource faults: %s", cause)
	}
	// A managed log-full state must be leavable.
	if full, _ := s.LogFull(); full {
		if err := s.RecoverLogSpace(); err != nil && !errors.Is(err, fishstore.ErrLogFull) {
			return fmt.Errorf("RecoverLogSpace: %w", err)
		}
	}
	rep.Recoveries += s.Stats().LogFullRecoveries

	// fsck: the surviving log is structurally clean.
	vrep, err := s.VerifyLog(fishstore.VerifyOptions{})
	if err != nil {
		return dumpOnFailure(cfg, s, fmt.Errorf("verify: %w", err))
	}
	if !vrep.OK() {
		return dumpOnFailure(cfg, s, fmt.Errorf("verify: %s", vrep.Corruption))
	}

	// Index and full scans agree over the live range.
	idxCount, err := indexScanSet(s, fishstore.PropertyString(idRepo, "spark"))
	if err != nil {
		return dumpOnFailure(cfg, s, fmt.Errorf("post-round index scan: %w", err))
	}
	fullCount := 0
	if _, err := s.Scan(fishstore.PropertyString(idRepo, "spark"),
		fishstore.ScanOptions{Mode: fishstore.ScanForceFull}, func(r fishstore.Record) bool {
			fullCount++
			return true
		}); err != nil {
		return dumpOnFailure(cfg, s, fmt.Errorf("post-round full scan: %w", err))
	}
	if idxCount != fullCount {
		return dumpOnFailure(cfg, s,
			fmt.Errorf("index scan found %d records, full scan %d", idxCount, fullCount))
	}

	// The store still ingests.
	sess := s.NewSession()
	if _, err := sess.Ingest([][]byte{crashPayload(0, 2_000_000)}); err != nil {
		sess.Close()
		return dumpOnFailure(cfg, s, fmt.Errorf("post-round ingest: %w", err))
	}
	sess.Close()

	// No leaked epoch guards: every session is closed, every scan returned.
	if live, prot := s.EpochInUse(); live != 0 || prot != 0 {
		return dumpOnFailure(cfg, s,
			fmt.Errorf("leaked epoch guards: %d live, %d protected", live, prot))
	}
	return nil
}

// dumpOnFailure writes the failing round's flight recording before
// propagating err, so CI uploads the timeline that led to the violation.
func dumpOnFailure(cfg ChaosConfig, s *fishstore.Store, err error) error {
	if cfg.ArtifactDir != "" {
		if f, ferr := os.Create(filepath.Join(cfg.ArtifactDir, "FLIGHT_CHAOS.jsonl")); ferr == nil {
			_ = s.DumpFlight(f)
			_ = f.Close()
		}
	}
	return err
}

// makeScheduleForSeed rebuilds the exact schedule a sweep derived from seed
// (repro helper for failing rounds).
func makeScheduleForSeed(seed int64) chaosSchedule {
	return makeSchedule(rand.New(rand.NewSource(seed)), seed)
}
