// bench_test.go holds one benchmark per paper table/figure (each drives the
// corresponding harness experiment at reduced scale; run the full versions
// with cmd/fishbench) plus micro-benchmarks of the core operations the
// evaluation is built from: ingestion per workload, the scan modes, and
// point lookups. They report ns/op and allocs/op for profiling; the
// performance gate is the ledger in benchmark/.
package fishstore_test

import (
	"io"
	"testing"

	"fishstore"
	"fishstore/internal/datagen"
	"fishstore/internal/harness"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// ---- micro: ingestion throughput per workload ----

func benchIngest(b *testing.B, w harness.Workload) {
	s, _, err := harness.OpenFishStore(w, fishstore.Options{PageBits: 20, MemPages: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := datagen.Batch(w.NewGen(1), 64)
	var bytes int64
	for _, r := range batch {
		bytes += int64(len(r))
	}
	sess := s.NewSession()
	defer sess.Close()
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestGithub(b *testing.B)        { benchIngest(b, harness.Table1()["github"]) }
func BenchmarkIngestTwitter(b *testing.B)       { benchIngest(b, harness.Table1()["twitter"]) }
func BenchmarkIngestTwitterSimple(b *testing.B) { benchIngest(b, harness.Table1()["twitter-simple"]) }
func BenchmarkIngestYelp(b *testing.B)          { benchIngest(b, harness.Table1()["yelp"]) }
func BenchmarkIngestYelpCSV(b *testing.B)       { benchIngest(b, harness.YelpCSVWorkload()) }

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
	b.ReportAllocs()
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

// openScanStore builds the scan store: 60 batches of 64 Yelp records (about
// ten 256KB pages, two of them in memory) on dev, with the PSF
// `stars > 3 && useful > 5` registered after registerAt batches. mutate, if
// set, adjusts the options before Open.
func openScanStore(tb testing.TB, dev storage.Device, registerAt int, mutate func(*fishstore.Options)) (*fishstore.Store, fishstore.Property) {
	tb.Helper()
	w := harness.Table1()["yelp"]
	opts := fishstore.Options{Parser: w.Parser, PageBits: 18, MemPages: 2, Device: dev}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := fishstore.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	gen := w.NewGen(1)
	ingest := func(batches int) {
		sess := s.NewSession()
		defer sess.Close()
		for i := 0; i < batches; i++ {
			if _, err := sess.Ingest(datagen.Batch(gen, 64)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	ingest(registerAt)
	id, _, err := s.RegisterPSF(psf.MustPredicate("good", `stars > 3 && useful > 5`))
	if err != nil {
		tb.Fatal(err)
	}
	ingest(60 - registerAt)
	return s, fishstore.PropertyBool(id, true)
}

func benchScan(b *testing.B, mode fishstore.ScanMode, verify bool) {
	dev := storage.NewSimSSD(storage.NewMem(), storage.DefaultSSDProfile())
	s, prop := openScanStore(b, dev, 0, func(o *fishstore.Options) { o.VerifyOnRead = verify })
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Scan(prop, fishstore.ScanOptions{Mode: mode},
			func(fishstore.Record) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanIndexPrefetch(b *testing.B) { benchScan(b, fishstore.ScanForceIndex, false) }
func BenchmarkScanFull(b *testing.B)          { benchScan(b, fishstore.ScanForceFull, false) }

// The same two scans with VerifyOnRead: every device record's checksum is
// re-validated before it is surfaced. Compare against BenchmarkScanFull and
// BenchmarkScanIndexPrefetch for the quarantine machinery's read-side cost.
func BenchmarkScanFullVerify(b *testing.B)  { benchScan(b, fishstore.ScanForceFull, true) }
func BenchmarkScanIndexVerify(b *testing.B) { benchScan(b, fishstore.ScanForceIndex, true) }

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
func BenchmarkAppFShardedChains(b *testing.B)    { benchExperiment(b, "appF") }
