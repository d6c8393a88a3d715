// bench_test.go holds one benchmark per paper table/figure (each drives the
// corresponding harness experiment at reduced scale; run the full versions
// with cmd/fishbench) plus micro-benchmarks of the core operations the
// evaluation is built from: ingestion per workload, the four scan modes,
// and point lookups.
package fishstore_test

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"fishstore"
	"fishstore/internal/datagen"
	"fishstore/internal/harness"
	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
)

// ---- benchmark artifact ----

// benchArtifact accumulates ingestion benchmark results; TestMain writes them
// to BENCH_ingest.json so CI and the harness can diff runs.
type benchResult struct {
	Name          string             `json:"name"`
	RecordsPerSec float64            `json:"records_per_sec"`
	BytesPerSec   float64            `json:"bytes_per_sec"`
	AllocsPerOp   float64            `json:"allocs_per_op"`
	PhaseMeansNs  map[string]float64 `json:"phase_means_ns,omitempty"`
}

// scanBenchResult is one scan benchmark's entry in BENCH_scan.json: the
// Fig 9 comparison surface — index vs full vs adaptive throughput, how much
// of the range the adaptive planner covered from the index, and the Φ
// threshold in force during the run.
type scanBenchResult struct {
	Name            string  `json:"name"`
	Mode            string  `json:"mode"`
	RecordsPerSec   float64 `json:"records_per_sec"` // matched records surfaced per second
	AllocsPerOp     float64 `json:"allocs_per_op"`
	MatchedPerScan  int64   `json:"matched_per_scan"`
	IndexedFraction float64 `json:"indexed_fraction"`
	PhiBytes        uint64  `json:"phi_bytes"`
}

var (
	benchMu          sync.Mutex
	benchResults     []benchResult
	scanBenchResults []scanBenchResult
)

// allocsPerOp measures heap allocations per benchmark iteration as the
// Mallocs delta since before, the way testing.AllocsPerRun does — including
// background goroutines (flush workers), which is deliberate: they are part
// of each operation's real cost.
func allocsPerOp(before *runtime.MemStats, n int) float64 {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if n <= 0 {
		return 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func recordBenchResult(r benchResult) {
	benchMu.Lock()
	defer benchMu.Unlock()
	// The testing framework re-runs the body while calibrating b.N; keep only
	// the final (longest) run for each benchmark.
	for i := range benchResults {
		if benchResults[i].Name == r.Name {
			benchResults[i] = r
			return
		}
	}
	benchResults = append(benchResults, r)
}

func recordScanBenchResult(r scanBenchResult) {
	benchMu.Lock()
	defer benchMu.Unlock()
	for i := range scanBenchResults {
		if scanBenchResults[i].Name == r.Name {
			scanBenchResults[i] = r
			return
		}
	}
	scanBenchResults = append(scanBenchResults, r)
}

func TestMain(m *testing.M) {
	code := m.Run()
	benchMu.Lock()
	defer benchMu.Unlock()
	if len(benchResults) > 0 {
		if raw, err := json.MarshalIndent(benchResults, "", "  "); err == nil {
			os.WriteFile("BENCH_ingest.json", append(raw, '\n'), 0o644)
		}
	}
	if len(scanBenchResults) > 0 {
		if raw, err := json.MarshalIndent(scanBenchResults, "", "  "); err == nil {
			os.WriteFile("BENCH_scan.json", append(raw, '\n'), 0o644)
		}
	}
	os.Exit(code)
}

// ---- micro: ingestion throughput per workload ----

func benchIngest(b *testing.B, w harness.Workload) {
	benchIngestOpts(b, w, fishstore.Options{PageBits: 20, MemPages: 8})
}

func benchIngestOpts(b *testing.B, w harness.Workload, opts fishstore.Options) {
	s, _, err := harness.OpenFishStore(w, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	gen := w.NewGen(1)
	batch := datagen.Batch(gen, 64)
	var bytes int64
	for _, r := range batch {
		bytes += int64(len(r))
	}
	sess := s.NewSession()
	defer sess.Close()
	b.SetBytes(bytes)
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	elapsed := b.Elapsed().Seconds()
	if elapsed <= 0 {
		return
	}
	res := benchResult{
		Name:          b.Name(),
		RecordsPerSec: float64(b.N) * float64(len(batch)) / elapsed,
		BytesPerSec:   float64(b.N) * float64(bytes) / elapsed,
		AllocsPerOp:   allocsPerOp(&memBefore, b.N),
	}
	if opts.CollectPhaseStats {
		ph := sess.Phases()
		if ph.Records > 0 {
			res.PhaseMeansNs = map[string]float64{
				"parse":    float64(ph.Parse) / float64(ph.Records),
				"psf_eval": float64(ph.PSFEval) / float64(ph.Records),
				"memcpy":   float64(ph.Memcpy) / float64(ph.Records),
				"index":    float64(ph.Index) / float64(ph.Records),
				"others":   float64(ph.Others) / float64(ph.Records),
			}
		}
	}
	recordBenchResult(res)
}

func BenchmarkIngestGithub(b *testing.B)        { benchIngest(b, harness.Table1()["github"]) }
func BenchmarkIngestTwitter(b *testing.B)       { benchIngest(b, harness.Table1()["twitter"]) }
func BenchmarkIngestTwitterSimple(b *testing.B) { benchIngest(b, harness.Table1()["twitter-simple"]) }
func BenchmarkIngestYelp(b *testing.B)          { benchIngest(b, harness.Table1()["yelp"]) }
func BenchmarkIngestYelpCSV(b *testing.B)       { benchIngest(b, harness.YelpCSVWorkload()) }

// BenchmarkIngestYelpNoMetrics / BenchmarkIngestYelpMetrics bracket the
// instrumentation overhead: identical workloads against an explicitly
// disabled registry vs a live one (the acceptance bar is <3% regression).
func BenchmarkIngestYelpNoMetrics(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewDisabled()})
}

func BenchmarkIngestYelpMetrics(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewRegistry()})
}

// BenchmarkIngestYelpNoTracing / BenchmarkIngestYelpTracing bracket the
// span layer's cost: identical workloads with no tracer vs an enabled
// tracer recording every ingest batch (root span + five phase children per
// record). The attached-but-disabled case is covered separately by
// TestTracingDisabledOverheadBounded, whose bar is ≤2%.
func BenchmarkIngestYelpNoTracing(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewDisabled()})
}

func BenchmarkIngestYelpTracing(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewDisabled(),
			Tracer: trace.New(trace.Options{})})
}

// BenchmarkIngestYelpChecksum / BenchmarkIngestYelpNoChecksum bracket the
// per-record CRC32-C seal cost paid at flush time. Both run with metrics
// disabled so the seal is the only difference (the acceptance bar is <5%
// regression with checksums on, which is the default).
func BenchmarkIngestYelpChecksum(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewDisabled()})
}

func BenchmarkIngestYelpNoChecksum(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewDisabled(),
			DisableRecordChecksums: true})
}

// BenchmarkIngestYelpTelemetry / BenchmarkIngestYelpNoTelemetry bracket the
// workload-attribution layer's cost: identical workloads with the collector
// on (the default — per-batch sketch records plus batch-local PSF
// accumulation) vs DisableTelemetry. Metrics are disabled in both so the
// collector is the only difference. The acceptance bar is <3% regression,
// enforced by perfgate.IngestInvariants in fishbench -compare.
func BenchmarkIngestYelpTelemetry(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewDisabled()})
}

func BenchmarkIngestYelpNoTelemetry(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewDisabled(),
			DisableTelemetry: true})
}

// BenchmarkIngestYelpLimits / BenchmarkIngestYelpNoLimits bracket the
// admission-control cost: identical workloads with a resource governor whose
// budget is never hit (so only the fast path — a handful of atomic adds per
// batch — is measured) vs no Limits at all. Metrics are disabled in both so
// the governor is the only difference. The acceptance bar is <2% regression,
// enforced by perfgate.IngestInvariants in fishbench -compare.
func BenchmarkIngestYelpLimits(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewDisabled(),
			Limits: &fishstore.Limits{
				MaxInFlightIngestBytes: 1 << 30,
				MaxConcurrentScans:     64,
			}})
}

func BenchmarkIngestYelpNoLimits(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewDisabled()})
}

// BenchmarkIngestYelpPhases additionally collects the Fig 13 per-phase
// breakdown (and exports per-phase means into BENCH_ingest.json).
func BenchmarkIngestYelpPhases(b *testing.B) {
	benchIngestOpts(b, harness.Table1()["yelp"],
		fishstore.Options{PageBits: 20, MemPages: 8, Metrics: metrics.NewRegistry(),
			CollectPhaseStats: true})
}

func BenchmarkIngestParallel(b *testing.B) {
	w := harness.Table1()["yelp"]
	s, _, err := harness.OpenFishStore(w, fishstore.Options{PageBits: 22, MemPages: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := datagen.Batch(w.NewGen(1), 64)
	var bytes int64
	for _, r := range batch {
		bytes += int64(len(r))
	}
	b.SetBytes(bytes)
	b.RunParallel(func(pb *testing.PB) {
		sess := s.NewSession()
		defer sess.Close()
		for pb.Next() {
			if _, err := sess.Ingest(batch); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// ---- micro: scan modes over a disk-resident log ----

func buildScanStore(b *testing.B) (*fishstore.Store, fishstore.Property) {
	return buildScanStoreVerify(b, false)
}

// buildScanStoreVerify is buildScanStore with VerifyOnRead selectable, so
// the CRC re-validation cost on device reads can be benchmarked in
// isolation against the identical unverified scan.
func buildScanStoreVerify(b *testing.B, verify bool) (*fishstore.Store, fishstore.Property) {
	return buildScanStoreOpts(b, func(o *fishstore.Options) { o.VerifyOnRead = verify })
}

// buildScanStoreOpts is buildScanStore with an options mutator, so variants
// can disable the page cache or turn on VerifyOnRead and measure each one's
// contribution in isolation.
func buildScanStoreOpts(b *testing.B, mutate func(*fishstore.Options)) (*fishstore.Store, fishstore.Property) {
	w := harness.Table1()["yelp"]
	dev := storage.NewSimSSD(storage.NewMem(), storage.DefaultSSDProfile())
	opts := fishstore.Options{Parser: w.Parser, PageBits: 18, MemPages: 2, Device: dev}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := fishstore.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	def := psf.MustPredicate("good", `stars > 3 && useful > 5`)
	id, _, err := s.RegisterPSF(def)
	if err != nil {
		b.Fatal(err)
	}
	sess := s.NewSession()
	gen := w.NewGen(1)
	for i := 0; i < 60; i++ {
		if _, err := sess.Ingest(datagen.Batch(gen, 64)); err != nil {
			b.Fatal(err)
		}
	}
	sess.Close()
	return s, fishstore.PropertyBool(id, true)
}

// buildMixedScanStore is buildScanStore with the PSF registered mid-ingest,
// so half the log predates the PSF's safe register boundary: an auto-mode
// scan over the whole range must split into a full-scan prefix and an
// index-scan suffix — the adaptive planner's §7.2 case.
func buildMixedScanStore(b *testing.B) (*fishstore.Store, fishstore.Property) {
	w := harness.Table1()["yelp"]
	dev := storage.NewSimSSD(storage.NewMem(), storage.DefaultSSDProfile())
	opts := fishstore.Options{Parser: w.Parser, PageBits: 18, MemPages: 2, Device: dev}
	s, err := fishstore.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	gen := w.NewGen(1)
	sess := s.NewSession()
	for i := 0; i < 30; i++ {
		if _, err := sess.Ingest(datagen.Batch(gen, 64)); err != nil {
			b.Fatal(err)
		}
	}
	sess.Close()
	def := psf.MustPredicate("good", `stars > 3 && useful > 5`)
	id, _, err := s.RegisterPSF(def)
	if err != nil {
		b.Fatal(err)
	}
	sess = s.NewSession()
	for i := 0; i < 30; i++ {
		if _, err := sess.Ingest(datagen.Batch(gen, 64)); err != nil {
			b.Fatal(err)
		}
	}
	sess.Close()
	return s, fishstore.PropertyBool(id, true)
}

func benchScanStore(b *testing.B, build func(*testing.B) (*fishstore.Store, fishstore.Property), mode fishstore.ScanMode) {
	benchScanStoreOpts(b, build, fishstore.ScanOptions{Mode: mode})
}

func benchScanStoreOpts(b *testing.B, build func(*testing.B) (*fishstore.Store, fishstore.Property), sopts fishstore.ScanOptions) {
	s, prop := build(b)
	defer s.Close()
	var matched int64
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched = 0
		if _, err := s.Scan(prop, sopts,
			func(fishstore.Record) bool { matched++; return true }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	elapsed := b.Elapsed().Seconds()
	if elapsed <= 0 {
		return
	}
	res := scanBenchResult{
		Name:           b.Name(),
		RecordsPerSec:  float64(matched) * float64(b.N) / elapsed,
		AllocsPerOp:    allocsPerOp(&memBefore, b.N),
		MatchedPerScan: matched,
	}
	// The store's own decision log supplies the executed plan's index/full
	// split and the Φ threshold the adaptive planner used.
	if sl := s.ScanDecisions(); len(sl.Decisions) > 0 {
		d := sl.Decisions[len(sl.Decisions)-1]
		res.Mode = d.Mode
		res.IndexedFraction = d.IndexedFraction
		res.PhiBytes = d.PhiBytes
	}
	recordScanBenchResult(res)
}

func benchScan(b *testing.B, mode fishstore.ScanMode) { benchScanStore(b, buildScanStore, mode) }

func BenchmarkScanIndexPrefetch(b *testing.B)   { benchScan(b, fishstore.ScanForceIndex) }
func BenchmarkScanIndexNoPrefetch(b *testing.B) { benchScan(b, fishstore.ScanIndexNoPrefetch) }
func BenchmarkScanFull(b *testing.B)            { benchScan(b, fishstore.ScanForceFull) }

// BenchmarkScanIndexRawPrefetch is the adaptive index scan with the page
// cache disabled: pure §7.2 window speculation plus the
// observed-latency clamp. Compare against BenchmarkScanIndexNoPrefetch —
// with the clamp working, speculation must not lose to exact reads even
// without the page cache's help.
func BenchmarkScanIndexRawPrefetch(b *testing.B) {
	benchScanStore(b, func(b *testing.B) (*fishstore.Store, fishstore.Property) {
		return buildScanStoreOpts(b, func(o *fishstore.Options) { o.PageCachePages = -1 })
	}, fishstore.ScanForceIndex)
}

// BenchmarkScanFullParallel sweeps the same range page-parallel (4 workers).
func BenchmarkScanFullParallel(b *testing.B) {
	benchScanStoreOpts(b, buildScanStore,
		fishstore.ScanOptions{Mode: fishstore.ScanForceFull, Parallelism: 4})
}

// The same two scans with VerifyOnRead: every device record's checksum is
// re-validated before it is surfaced. Compare against BenchmarkScanFull and
// BenchmarkScanIndexPrefetch for the quarantine machinery's read-side cost.
func BenchmarkScanFullVerify(b *testing.B) {
	benchScanStore(b, func(b *testing.B) (*fishstore.Store, fishstore.Property) {
		return buildScanStoreVerify(b, true)
	}, fishstore.ScanForceFull)
}
func BenchmarkScanIndexVerify(b *testing.B) {
	benchScanStore(b, func(b *testing.B) (*fishstore.Store, fishstore.Property) {
		return buildScanStoreVerify(b, true)
	}, fishstore.ScanForceIndex)
}

// The three modes over the half-indexed log: adaptive auto (mixed plan) vs
// forced full vs forced index (which silently misses the unindexed prefix).
func BenchmarkScanAdaptiveMixed(b *testing.B) {
	benchScanStore(b, buildMixedScanStore, fishstore.ScanAuto)
}
func BenchmarkScanMixedFull(b *testing.B) {
	benchScanStore(b, buildMixedScanStore, fishstore.ScanForceFull)
}
func BenchmarkScanMixedIndex(b *testing.B) {
	benchScanStore(b, buildMixedScanStore, fishstore.ScanForceIndex)
}

func BenchmarkPointLookup(b *testing.B) {
	w := harness.Table1()["github"]
	s, err := fishstore.Open(fishstore.Options{Parser: w.Parser, PageBits: 20, MemPages: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	id, _, err := s.RegisterPSF(psf.Projection("actor.id"))
	if err != nil {
		b.Fatal(err)
	}
	sess := s.NewSession()
	if _, err := sess.Ingest(datagen.Batch(w.NewGen(1), 2000)); err != nil {
		b.Fatal(err)
	}
	sess.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		actor := float64(100 + i%5000)
		if _, err := s.Lookup(fishstore.PropertyNumber(id, actor),
			func(fishstore.Record) bool { return false }); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- one bench per paper table/figure ----

// benchExperiment runs a reduced-scale version of the harness experiment;
// ns/op is the end-to-end experiment runtime. cmd/fishbench runs the
// full-scale versions and prints the actual tables.
func benchExperiment(b *testing.B, id string) {
	cfg := harness.QuickConfig(io.Discard)
	cfg.DataMB = 2
	cfg.Threads = []int{1, 2}
	run := harness.Experiments()[id]
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Workloads(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkFig10IngestDisk(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11IngestMemory(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12IngestDiskTrio(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13CPUBreakdown(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14FieldPSFs(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15PredicatePSFs(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkFig16aRetrieval(b *testing.B)      { benchExperiment(b, "fig16a") }
func BenchmarkFig16bSelectivity(b *testing.B)    { benchExperiment(b, "fig16b") }
func BenchmarkFig16cMemoryBudget(b *testing.B)   { benchExperiment(b, "fig16c") }
func BenchmarkFig16dMixedWorkload(b *testing.B)  { benchExperiment(b, "fig16d") }
func BenchmarkFig16eRecurringQuery(b *testing.B) { benchExperiment(b, "fig16e") }
func BenchmarkFig17CASTechnique(b *testing.B)    { benchExperiment(b, "fig17") }
func BenchmarkFig18aCSVIngest(b *testing.B)      { benchExperiment(b, "fig18a") }
func BenchmarkFig18bCSVRetrieve(b *testing.B)    { benchExperiment(b, "fig18b") }
func BenchmarkFig19ChainGaps(b *testing.B)       { benchExperiment(b, "fig19") }
func BenchmarkFig20aRecovery(b *testing.B)       { benchExperiment(b, "fig20a") }
func BenchmarkFig20bCheckpoint(b *testing.B)     { benchExperiment(b, "fig20b") }
func BenchmarkMongoComparison(b *testing.B)      { benchExperiment(b, "mongo") }

// Silence unused-import lint in case of build-tag pruning.

func BenchmarkAppFShardedChains(b *testing.B) { benchExperiment(b, "appF") }
