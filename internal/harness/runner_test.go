package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fishstore"
	"fishstore/internal/hlog"
	"fishstore/internal/introspect"
	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
	"fishstore/internal/wordio"
)

// This file is the fault runner. A round draws one schedule from its seed:
// concurrent ingest workers, a fourth PSF registered and later deregistered
// while they run, and one profile's faults. The store that survives the
// round is then checked against a reference model — what each worker had
// acknowledged, and each PSF's registration intervals taken from its
// psf.Result boundaries — so one check covers Appendix E's recovery to a
// consistent prefix and §5.3's safe registration boundaries. Only go test
// drives the runner (faults_test.go), so it lives in a test file.

// profile names the faults a round injects.
type profile string

const (
	// profileCut cuts power at a random device write while workers ingest
	// and checkpoints race them, then recovers from the surviving image.
	profileCut profile = "cut"
	// profileResource slows the device, storms cancellations, attaches a
	// slow subscriber and truncates concurrently. Half its rounds also cap
	// the device's capacity: a full device is a fail-stop fault, so such a
	// round ingests until the store degrades, then recovers from the
	// surviving image as a cut round does.
	profileResource profile = "resource"
	// profileRot flips random bits below the head of a flushed log and reads
	// it back with VerifyOnRead.
	profileRot profile = "rot"
)

// A cut round's workers ingest cutCheckpointed records each before the
// checkpoint that must survive, then the rest with the cut armed and a
// checkpoint every cutCheckpointEvery acknowledged batches.
const cutCheckpointed, cutCheckpointEvery = 40, 16

// A capped resource round's workers ingest resourceCheckpointed records each
// before the checkpoint it recovers from, well below the smallest cap; once
// the faults have run, each ingests up to resourceFill more records to fill
// the device.
const resourceCheckpointed, resourceFill = 10, 400

// schedule is one round's operations and faults, all drawn from Seed.
type schedule struct {
	Profile profile
	Seed    int64
	// Workers ingest Records one-record batches each. The churn PSF is
	// registered and deregistered once RegisterAt and DeregisterAt batches
	// are acknowledged.
	Workers, Records         int
	RegisterAt, DeregisterAt int64
	// cut: the armed device write.
	CutAt int64
	// resource: a zero field leaves its fault class unarmed.
	CapBytes              int64
	WriteDelay, ReadDelay time.Duration
	CancelAfter           int64
	Subscribe             bool
	SubPolicy             fishstore.SubscribePolicy
	Truncate              bool
	// rot: bits flipped below the head.
	Flips int
}

// newSchedule draws the schedule of round seed of profile p.
func newSchedule(p profile, seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	coin := func(n int) bool { return rng.Intn(n) == 0 }
	sc := schedule{Profile: p, Seed: seed, Workers: 3, Records: 100}
	churnOver := int64(sc.Workers * sc.Records)
	switch p {
	case profileCut:
		// The registration churn runs before the guaranteed checkpoint:
		// registry changes become durable only through a checkpoint.
		sc.CutAt, churnOver = 1+rng.Int63n(24), int64(sc.Workers*cutCheckpointed)
	case profileResource:
		sc.Records, churnOver = 80, int64(sc.Workers*80)
		if coin(2) {
			// Small enough that the workload overruns it. The churn runs
			// before the checkpoint the round recovers from.
			sc.CapBytes = 10<<10 + rng.Int63n(12<<10)
			churnOver = int64(sc.Workers * resourceCheckpointed)
		}
		if coin(3) {
			sc.WriteDelay = time.Duration(rng.Intn(120)) * time.Microsecond
		}
		if coin(4) {
			sc.ReadDelay = time.Duration(rng.Intn(80)) * time.Microsecond
		}
		if coin(2) {
			sc.CancelAfter = 1 + rng.Int63n(20)
		}
		if sc.Subscribe = coin(2); sc.Subscribe {
			sc.SubPolicy = []fishstore.SubscribePolicy{fishstore.DropNewest, fishstore.DropOldest, fishstore.Block}[rng.Intn(3)]
		}
		sc.Truncate = coin(3)
	case profileRot:
		sc.Flips = 2 + rng.Intn(8)
	}
	sc.RegisterAt = 1 + rng.Int63n(churnOver/3)
	sc.DeregisterAt = sc.RegisterAt + 1 + rng.Int63n(churnOver/2)
	return sc
}

// outcome is what one round observed, for the sweep's own assertions.
type outcome struct {
	CutFired  bool // the armed write was reached before the workload ended
	Survivors int  // records the check found in the store
	Damaged   bool // the verifier found a rot round's flips
	// Acknowledged batches, operations a cancellation aborted.
	Ingested, Cancelled int64
	// Recovered is set when a capped round's store degraded on the full
	// device and the round recovered from the device image.
	Recovered bool
	// Flight is the round's flight dump (see round.flight) when it failed,
	// or for a cut round just after the cut.
	Flight []byte
}

// runRound runs one round. Its error names the schedule, so the round can
// be rerun alone; with artifactDir set, a failing round also leaves its
// report and flight dump there.
func runRound(sc schedule, artifactDir string) (outcome, error) {
	r := &round{sc: sc, rng: rand.New(rand.NewSource(sc.Seed + 7)), flight: introspect.NewRing[trace.SpanData](256), m: model{
		tried: make([]int, sc.Workers), acked: make([][]int, sc.Workers), ackedN: make([]atomic.Int64, sc.Workers),
		ivs: map[psf.ID][]psf.Interval{}}}
	err := r.run()
	if err != nil {
		err = fmt.Errorf("%s/seed=%d (schedule %+v): %w", sc.Profile, sc.Seed, sc, err)
		if artifactDir != "" {
			name := filepath.Join(artifactDir, fmt.Sprintf("%s-seed=%d", sc.Profile, sc.Seed))
			// Best effort inside a failure path: the files only enrich err.
			_ = os.WriteFile(name+"-REPORT.txt", []byte(err.Error()+"\n"), 0o644)
			_ = os.WriteFile(name+"-FLIGHT.jsonl", r.out.Flight, 0o644)
		}
	}
	return r.out, err
}

type round struct {
	sc        schedule
	rng       *rand.Rand
	m         model
	out       outcome
	fd        *storage.FaultDevice
	ids       [4]psf.ID                        // repo.name projection, repo.stars buckets, PushEvent predicate, churn
	rotLive   bool                             // a rot flip landed in a live record
	flight    *introspect.Ring[trace.SpanData] // the store's events (Options.TraceSink) and the cut
	batches   atomic.Int64
	cancelled atomic.Int64
	degraded  atomic.Bool // a worker's ingest met ErrDegraded on the capped device
}

// model is the reference the surviving store is checked against.
type model struct {
	tried   []int          // per worker: seqs [0, tried) were attempted
	acked   [][]int        // per worker: the acknowledged seqs, append-only
	ackedN  []atomic.Int64 // len(acked[w]), read while the workers run
	durable []int          // per worker: acked[w][:durable[w]] must survive recovery; nil without one
	ivs     map[psf.ID][]psf.Interval
}

type key struct{ w, seq int }

func (m *model) indexed(id psf.ID, addr uint64) bool {
	for _, iv := range m.ivs[id] {
		if iv.Contains(addr) {
			return true
		}
	}
	return false
}

func faultPayload(worker, seq int) []byte {
	typ := "PushEvent"
	if seq%2 == 1 {
		typ = "IssuesEvent"
	}
	return []byte(fmt.Sprintf(
		`{"id": %d, "type": %q, "repo": {"name": "spark", "stars": %d}, "worker": %d, "seq": %d}`,
		worker*1_000_000+seq, typ, seq%97, worker, seq))
}

// identify maps a surfaced record to the model's (worker, seq), failing on
// any payload the model never attempted byte for byte.
func (r *round) identify(rec fishstore.Record) (key, error) {
	var k struct{ Worker, Seq int }
	if json.Unmarshal(rec.Payload, &k) != nil || k.Worker < 0 || k.Worker >= r.sc.Workers ||
		k.Seq < 0 || k.Seq >= r.m.tried[k.Worker] || !bytes.Equal(rec.Payload, faultPayload(k.Worker, k.Seq)) {
		return key{}, fmt.Errorf("surfaced a payload the model never attempted at %d: %q", rec.Address, rec.Payload)
	}
	return key{k.Worker, k.Seq}, nil
}

func (r *round) run() (err error) {
	mem := storage.NewMem()
	// The cut joins the store's events in the round's flight ring, so a
	// flight dump shows it in sequence with the flushes and checkpoints
	// before it.
	r.fd = storage.NewFaultDevice(mem, storage.FaultConfig{Seed: r.sc.Seed, CapacityBytes: r.sc.CapBytes,
		OnPowerCut: func() { r.flight.Put(trace.Event("fault.powercut", trace.Int("seed", r.sc.Seed))) }})
	opts := fishstore.Options{Device: r.fd, PageBits: 12, MemPages: 4, TableBuckets: 2,
		Metrics: metrics.NewRegistry(), TraceSink: r.flight.Put, VerifyOnRead: r.sc.Profile == profileRot}
	s, err := fishstore.Open(opts)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil && r.out.Flight == nil {
			r.out.Flight = r.dumpFlight()
		}
		s.Close()
	}()
	// repo.stars falls in 20 buckets, so on the two-bucket table nearly
	// every round links overflow buckets, checkpoints and recovers them.
	for i, def := range []psf.Definition{psf.Projection("repo.name"), psf.RangeBucket("repo.stars", 5), psf.MustPredicate("push", `type == "PushEvent"`)} {
		id, res, err := s.RegisterPSF(def)
		if err != nil {
			return err
		}
		r.ids[i], r.m.ivs[id] = id, []psf.Interval{{From: res.SafeRegisterBoundary, To: ^uint64(0)}}
	}
	switch r.sc.Profile {
	case profileCut:
		return r.cut(s, mem)
	case profileResource:
		if r.sc.CapBytes > 0 {
			return r.full(s, mem)
		}
		if err := r.resource(s, 0, r.churn(s)); err != nil {
			return err
		}
	case profileRot:
		if err := r.phase(context.Background(), s, 0, r.sc.Records, r.churn(s)); err != nil {
			return err
		}
		return r.rot(s)
	}
	return r.check(s)
}

// step is an operation run once the workers have acknowledged at batches.
type step struct {
	at int64
	do func() error
}

// churn registers the fourth PSF, which matches every record, and later
// deregisters it, both while ingest runs.
func (r *round) churn(s *fishstore.Store) []step {
	return []step{{r.sc.RegisterAt, func() error {
		id, res, err := s.RegisterPSF(psf.MustPredicate("churn", `repo.name == "spark"`))
		r.ids[3], r.m.ivs[id] = id, []psf.Interval{{From: res.SafeRegisterBoundary, To: ^uint64(0)}}
		return err
	}}, {r.sc.DeregisterAt, func() error {
		res, err := s.DeregisterPSF(r.ids[3])
		r.m.ivs[r.ids[3]][0].To = res.SafeDeregisterBoundary
		return err
	}}}
}

// phase runs every worker over seqs [from, to) while the steps run in
// order; a step whose count is never reached runs when the workers stop.
func (r *round) phase(ctx context.Context, s *fishstore.Store, from, to int, steps []step) error {
	var wg sync.WaitGroup
	errs := make([]error, r.sc.Workers+1) // the workers', then the steps'
	for w := 0; w < r.sc.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			for seq := from; seq < to; seq++ {
				r.m.tried[w] = seq + 1
				_, err := sess.IngestContext(ctx, [][]byte{faultPayload(w, seq)})
				switch {
				case err == nil:
					r.m.acked[w] = append(r.m.acked[w], seq)
					r.m.ackedN[w].Add(1)
					r.batches.Add(1)
				case errors.Is(err, context.Canceled):
					r.cancelled.Add(1)
					return
				case r.fd.IsCut():
					return // the crash reached this worker
				case r.sc.CapBytes > 0 && errors.Is(err, fishstore.ErrDegraded):
					r.degraded.Store(true)
					return // the full device reached this worker
				default:
					errs[w] = fmt.Errorf("worker %d seq %d: %w", w, seq, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	stepErr := &errs[r.sc.Workers]
	for _, st := range steps {
		for *stepErr == nil && r.batches.Load() < st.at {
			select {
			case <-done:
				st.at = 0
			case <-time.After(20 * time.Microsecond):
			}
		}
		if *stepErr == nil {
			*stepErr = st.do()
		}
	}
	<-done
	return errors.Join(errs...)
}

func (r *round) cut(s *fishstore.Store, mem storage.Device) error {
	dir, err := os.MkdirTemp("", "fishstore-cut-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := r.phase(context.Background(), s, 0, cutCheckpointed, r.churn(s)); err != nil {
		return err
	}
	if err := r.checkpoint(s, dir); err != nil {
		return fmt.Errorf("guaranteed checkpoint: %w", err)
	}
	var steps []step
	for at := r.batches.Load() + cutCheckpointEvery; at < int64(r.sc.Workers*r.sc.Records); at += cutCheckpointEvery {
		steps = append(steps, step{at, func() error {
			if err := r.checkpoint(s, dir); err != nil && !r.fd.IsCut() {
				return fmt.Errorf("checkpoint before the cut: %w", err)
			}
			return nil
		}})
	}
	r.fd.ArmPowerCut(r.sc.CutAt)
	if err := r.phase(context.Background(), s, cutCheckpointed, r.sc.Records, steps); err != nil {
		return err
	}
	r.out.CutFired = r.fd.IsCut()
	r.fd.CutNow() // a no-op when the armed write was reached
	r.out.Flight = r.dumpFlight()
	_ = s.Close() // post-cut flush errors are the crash itself
	return r.recover(dir, mem)
}

// checkpoint checkpoints s into dir. Records acknowledged before a
// checkpoint that succeeds must survive recovery.
func (r *round) checkpoint(s *fishstore.Store, dir string) error {
	acked := make([]int, r.sc.Workers)
	for w := range acked {
		acked[w] = int(r.m.ackedN[w].Load())
	}
	err := s.Checkpoint(dir)
	if err == nil {
		r.m.durable = acked
	}
	return err
}

// recover reopens the store from the checkpoint in dir over the surviving
// device image mem, without the fault injector, and checks it.
func (r *round) recover(dir string, mem storage.Device) error {
	s, _, err := fishstore.Recover(dir, fishstore.RecoverOptions{
		Options: fishstore.Options{Device: mem, TableBuckets: 2, Metrics: metrics.NewRegistry(), VerifyOnRead: true}})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer s.Close()
	return r.check(s)
}

// full runs a capped resource round. The churn runs before the checkpoint
// the round recovers from; the resource faults then run while the device
// fills, and ingest goes on until it meets ErrDegraded from the full device.
// The round then recovers from the device image, as a cut round does.
func (r *round) full(s *fishstore.Store, mem storage.Device) error {
	dir, err := os.MkdirTemp("", "fishstore-full-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := r.phase(context.Background(), s, 0, resourceCheckpointed, r.churn(s)); err != nil {
		return err
	}
	if err := r.checkpoint(s, dir); err != nil {
		return fmt.Errorf("guaranteed checkpoint: %w", err)
	}
	if err := r.resource(s, resourceCheckpointed, nil); err != nil {
		return err
	}
	if !r.degraded.Load() {
		// The workers finished, or the cancellation storm stopped them,
		// before the device filled.
		if err := r.phase(context.Background(), s, r.sc.Records, r.sc.Records+resourceFill, nil); err != nil {
			return err
		}
	}
	st := s.Stats()
	if !r.degraded.Load() {
		return fmt.Errorf("ingest never met ErrDegraded on a %d-byte device (tail %d)", r.sc.CapBytes, st.TailAddress)
	}
	if !strings.Contains(st.DegradedCause, storage.ErrNoSpace.Error()) {
		return fmt.Errorf("degraded by %q, not by the full device", st.DegradedCause)
	}
	_ = s.Close() // the final tail flush meets the full device
	r.out.Recovered = true
	return r.recover(dir, mem)
}

// resource runs the resource faults while every worker ingests seqs
// [from, Records) and steps run.
func (r *round) resource(s *fishstore.Store, from int, steps []step) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sub *fishstore.Subscription
	if r.sc.Subscribe {
		sub = s.Subscribe(fishstore.PropertyString(r.ids[0], "spark"),
			fishstore.SubscribeOptions{Buffer: 1, Policy: r.sc.SubPolicy, Context: ctx})
		if r.sc.SubPolicy == fishstore.Block {
			// A Block subscriber nobody drains wedges ingest; drain it slowly.
			go func() {
				for range sub.Records() {
					time.Sleep(20 * time.Microsecond)
				}
			}()
		}
	}
	// Two scanners race ingest and each other in every mode, some with
	// deadlines; a truncator moves the chain floor under them.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 2 || g == 2 && r.sc.Truncate; g++ {
		wg.Add(1)
		go func(g int, rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 6 && errs[g] == nil; i++ {
				if g == 2 {
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					if tail := s.TailAddress(); tail > 8<<10 {
						// Pages start with a record: a page-aligned point is a
						// record boundary.
						errs[g] = s.TruncateUntil((tail - 8<<10) &^ (1<<12 - 1))
					}
					continue
				}
				sctx, scancel := ctx, context.CancelFunc(func() {})
				if r.sc.CancelAfter > 0 && i%2 == 1 {
					sctx, scancel = context.WithTimeout(ctx, time.Duration(rng.Intn(400))*time.Microsecond)
				}
				_, err := s.ScanContext(sctx, fishstore.PropertyString(r.ids[0], "spark"),
					fishstore.ScanOptions{Mode: fishstore.ScanMode(i % 4)}, func(fishstore.Record) bool { return true })
				scancel()
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					r.cancelled.Add(1)
				} else {
					errs[g] = err
				}
			}
		}(g, rand.New(rand.NewSource(r.sc.Seed+int64(g))))
	}
	r.fd.SetWriteDelay(r.sc.WriteDelay)
	r.fd.SetReadDelay(r.sc.ReadDelay)
	if r.sc.CancelAfter > 0 {
		steps = append(steps, step{r.batches.Load() + r.sc.CancelAfter, func() error { cancel(); return nil }})
		sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	}
	errs[3] = r.phase(ctx, s, from, r.sc.Records, steps)
	wg.Wait()
	r.fd.SetWriteDelay(0)
	r.fd.SetReadDelay(0)
	if sub != nil {
		sub.Cancel()
	}
	return errors.Join(errs...)
}

// rot flushes, then flips bits below the head. Only a flip inside a live
// record must show in some scan; one in a filler or an abandoned copy shows
// only to the verifier.
func (r *round) rot(s *fishstore.Store) error {
	if err := s.Flush(); err != nil {
		return err
	}
	begin, head := hlog.BeginAddress, s.HeadAddress()
	if head <= begin {
		return errors.New("workload too small: nothing below HeadAddress to corrupt")
	}
	words := make([]uint64, head/8) // the image before the flips
	if _, err := r.fd.ReadAt(wordio.Bytes(words[begin/8:]), int64(begin)); err != nil {
		return err
	}
	flips, err := r.fd.FlipRandomBits(r.sc.Flips, int64(begin), int64(head))
	if err != nil {
		return err
	}
	for _, f := range flips {
		// Records never straddle a page: walk the flip's page to the record
		// holding it.
		at := uint64(f / 64)
		for off := max(at&^(1<<9-1), begin/8); off <= at; {
			h := record.Header(words[off])
			end := off + uint64(h.SizeWords())
			if h.SizeWords() == 0 || at < end && (h.Filler() || h.Invalid()) {
				break
			}
			if at < end {
				r.rotLive = true
				break
			}
			off = end
		}
	}
	if err := r.check(s); err != nil {
		return fmt.Errorf("flips at %v: %w", flips, err)
	}
	return nil
}

// dumpFlight renders the flight ring as JSON lines, oldest first.
func (r *round) dumpFlight() []byte {
	var b bytes.Buffer
	sink := trace.JSONLines(&b)
	for _, d := range r.flight.Snapshot() {
		sink(d)
	}
	return b.Bytes()
}

// check compares the store that survived the round with the model: fsck,
// per-worker survival, every query in every ScanMode over the whole log and
// random ranges, a fresh ingest, and no leaked epoch guard.
func (r *round) check(s *fishstore.Store) error {
	r.out.Cancelled = r.cancelled.Load()
	for _, acked := range r.m.acked {
		r.out.Ingested += int64(len(acked))
	}
	if st := s.Stats(); st.Degraded {
		return fmt.Errorf("store sticky-degraded: %s", st.DegradedCause)
	}
	vrep, err := s.VerifyLog(fishstore.VerifyOptions{})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	// Only rot may leave damage; scans may then lose records, but never
	// surface one the model does not hold.
	exact := vrep.OK()
	if r.out.Damaged = !exact; !exact && r.sc.Profile != profileRot {
		return fmt.Errorf("verify: %s", vrep.Corruption)
	}

	at := map[key]uint64{} // where each surviving record lives
	var addrs []uint64
	var bad error
	err = s.Iterate(0, 0, func(rec fishstore.Record) bool {
		k, err := r.identify(rec)
		if _, dup := at[k]; err == nil && dup {
			err = fmt.Errorf("w%d/s%d surfaced twice", k.w, k.seq)
		}
		bad, at[k], addrs = err, rec.Address, append(addrs, rec.Address)
		return err == nil
	})
	if err = errors.Join(err, bad); err != nil {
		return fmt.Errorf("iterate: %w", err)
	}
	r.out.Survivors = len(at)
	st := s.Stats()
	lost := r.survival(at, st.LogSizeBytes < st.TotalAppendedBytes) // truncated
	if lost != nil && exact {
		return lost
	}
	damageSeen := lost != nil

	all := func(int) bool { return true }
	type query struct {
		prop  fishstore.Property
		match func(seq int) bool
	}
	queries := []query{
		{fishstore.PropertyString(r.ids[0], "spark"), all},
		{fishstore.PropertyBool(r.ids[2], true), func(seq int) bool { return seq%2 == 0 }},
		{fishstore.PropertyBool(r.ids[3], true), all},
	}
	// Every bucket, so that rot in any key pointer shows in some scan.
	for b := 0; b < 97; b += 5 {
		queries = append(queries, query{fishstore.PropertyNumber(r.ids[1], float64(b)), func(seq int) bool { return seq%97/5*5 == b }})
	}
	ranges := [][2]uint64{{0, 0}}
	for i := 0; i < 2 && len(addrs) > 1; i++ {
		a, b := r.rng.Intn(len(addrs)), r.rng.Intn(len(addrs))
		ranges = append(ranges, [2]uint64{addrs[min(a, b)], addrs[max(a, b)]})
	}
	for _, q := range queries {
		for mode := fishstore.ScanAuto; mode <= fishstore.ScanIndexNoPrefetch; mode++ {
			for _, rg := range ranges {
				// Index-only modes see the model clipped to the PSF's
				// registration intervals.
				in := func(seq int, a uint64) bool {
					return q.match(seq) && a >= rg[0] && (rg[1] == 0 || a < rg[1]) &&
						(mode < fishstore.ScanForceIndex || r.m.indexed(q.prop.PSF, a))
				}
				got, bad := map[key]bool{}, error(nil)
				st, err := s.Scan(q.prop, fishstore.ScanOptions{Mode: mode, From: rg[0], To: rg[1]},
					func(rec fishstore.Record) bool {
						k, err := r.identify(rec)
						switch a, located := at[k]; {
						case err != nil:
						case got[k]:
							err = fmt.Errorf("w%d/s%d surfaced twice", k.w, k.seq)
						case located && a != rec.Address || !located && exact:
							err = fmt.Errorf("w%d/s%d surfaced at %d, located at %d", k.w, k.seq, rec.Address, a)
						case !in(k.seq, rec.Address):
							err = fmt.Errorf("w%d/s%d at %d is outside the query", k.w, k.seq, rec.Address)
						}
						bad, got[k] = err, true
						return err == nil
					})
				missing := ""
				for k, a := range at {
					if in(k.seq, a) && !got[k] {
						missing = fmt.Sprintf("w%d/s%d at %d", k.w, k.seq, a)
						break
					}
				}
				short := missing != "" || st.Quarantined != 0
				if err = errors.Join(err, bad); err == nil && exact && short {
					err = fmt.Errorf("short of the model (missing %q)", missing)
				}
				if err != nil {
					return fmt.Errorf("psf %d (intervals %v) %s scan [%d, %d), quarantined %d: %w",
						q.prop.PSF, r.m.ivs[q.prop.PSF], mode, rg[0], rg[1], st.Quarantined, err)
				}
				damageSeen = damageSeen || short
			}
		}
	}
	if !exact && !damageSeen && r.rotLive {
		return fmt.Errorf("verifier reported %s but every scan returned the whole model", vrep.Corruption)
	}

	// The store still ingests, and indexes what it ingests.
	tail, fresh := s.TailAddress(), faultPayload(0, 1_000_000)
	sess := s.NewSession()
	_, err = sess.Ingest([][]byte{fresh})
	sess.Close()
	n := 0
	if err == nil {
		_, err = s.Scan(queries[0].prop, fishstore.ScanOptions{Mode: fishstore.ScanForceIndex, From: tail},
			func(rec fishstore.Record) bool {
				n += 1 + len(rec.Payload) - len(fresh)
				return bytes.Equal(rec.Payload, fresh)
			})
	}
	if err != nil || n != 1 {
		return fmt.Errorf("fresh ingest: %v (index scan found %d)", err, n)
	}
	m := s.Metrics()
	if live, prot := m.Value("fishstore_epoch_live_guards"), m.Value("fishstore_epoch_protected_guards"); live != 0 || prot != 0 {
		return fmt.Errorf("leaked epoch guards: %v live, %v protected", live, prot)
	}
	return nil
}

// survival checks each worker's survivors against what it acknowledged. No
// acknowledged record may be missing inside the surviving run; truncation
// may drop those before it, and only a crash or a full device those after
// it that no successful checkpoint covered.
func (r *round) survival(at map[key]uint64, truncated bool) error {
	for w, acked := range r.m.acked {
		lo, hi := -1, -1
		for k := range at {
			if k.w == w && (lo < 0 || k.seq < lo) {
				lo = k.seq
			}
			if k.w == w && k.seq > hi {
				hi = k.seq
			}
		}
		durable := len(acked)
		if r.m.durable != nil {
			durable = r.m.durable[w]
		}
		for i, seq := range acked {
			if _, ok := at[key{w, seq}]; ok || (seq < lo || lo < 0) && truncated || seq > hi && i >= durable {
				continue
			}
			return fmt.Errorf("worker %d lost acknowledged seq %d: survivors %d..%d, %d of %d acknowledged durable, truncated %v",
				w, seq, lo, hi, durable, len(acked), truncated)
		}
	}
	return nil
}
