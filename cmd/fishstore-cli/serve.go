package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fishstore"
	"fishstore/internal/datagen"
	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/telemetry"
	itrace "fishstore/internal/trace"
)

// serveMain implements `fishstore-cli serve`: a long-running demo store that
// continuously ingests synthetic data, answers a periodic subset query, and
// exposes the full observability endpoint (/metrics, /debug/vars,
// /debug/pprof) so the instrumentation can be watched live:
//
//	fishstore-cli serve -metrics-addr :9187 &
//	curl localhost:9187/metrics
func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr       = fs.String("metrics-addr", ":9187", "address for the metrics/pprof HTTP endpoint")
		gen        = fs.String("gen", "github", "synthetic dataset: github|twitter|yelp")
		project    = fs.String("project", "type", "field-projection PSF to register and index")
		query      = fs.String("query", "type=PushEvent", "periodic subset query (field=value; field must equal -project)")
		rateMB     = fs.Float64("rate-mb", 8, "target ingestion rate (MB/s)")
		scanSecs   = fs.Float64("scan-every", 2, "seconds between periodic scans (0 disables)")
		slow       = fs.Duration("slow", 250*time.Millisecond, "slow-operation trace threshold (0 disables)")
		trace      = fs.Bool("trace", false, "emit the event stream (events and root spans) as JSON lines on stderr")
		spans      = fs.Bool("spans", false, "record operation spans; fetch with `fishstore-cli trace` or /debug/fishstore/spans")
		spanSample = fs.Uint64("span-sample", 1, "with -spans, trace 1 in N root operations (1 = every operation)")
		duration   = fs.Duration("duration", 0, "exit after this long (0 = run until SIGINT)")
		sloIngest  = fs.Duration("slo-ingest-p99", 25*time.Millisecond, "ingest-batch p99 latency SLO for the watchdog (0 disables)")
		sloScan    = fs.Duration("slo-scan-p95", 100*time.Millisecond, "index-scan p95 latency SLO for the watchdog (0 disables)")
	)
	fs.Parse(args)

	var g datagen.Generator
	switch *gen {
	case "github":
		g = datagen.NewGithub(1, 0)
	case "twitter":
		g = datagen.NewTwitter(1, 0)
	case "yelp":
		g = datagen.NewYelp(1, 0)
	default:
		fatalf("unknown -gen %q", *gen)
	}

	reg := metrics.NewRegistry()
	opts := fishstore.Options{
		CollectPhaseStats: true,
		Metrics:           reg,
		SlowOpThreshold:   *slow,
	}
	if *trace {
		opts.TraceSink = itrace.JSONLines(os.Stderr)
	}
	if *spans {
		opts.Tracer = itrace.New(itrace.Options{SampleEvery: *spanSample})
	}
	if *sloIngest > 0 || *sloScan > 0 {
		opts.SLO = &telemetry.SLO{IngestBatchP99: *sloIngest, IndexScanP95: *sloScan}
	}
	s, err := fishstore.Open(opts)
	if err != nil {
		fatalf("open: %v", err)
	}
	defer s.Close()

	id, _, err := s.RegisterPSF(psf.Projection(*project))
	if err != nil {
		fatalf("register projection: %v", err)
	}
	qField, qValue, ok := strings.Cut(*query, "=")
	if !ok || qField != *project {
		fatalf("bad -query %q (want %s=value)", *query, *project)
	}
	prop := fishstore.PropertyString(id, qValue)

	srv := &http.Server{Addr: *addr, Handler: metrics.NewMux(reg)}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatalf("metrics endpoint: %v", err)
		}
	}()
	display := *addr
	if strings.HasPrefix(display, ":") {
		display = "localhost" + display
	}
	fmt.Fprintf(os.Stderr, "fishstore-cli serve: metrics on http://%s/metrics (dataset %s, %.1f MB/s)\n",
		display, *gen, *rateMB)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	if *duration > 0 {
		go func() {
			time.Sleep(*duration)
			close(done)
		}()
	}

	// Ingestion loop: fixed-size batches paced to roughly -rate-mb.
	quit := make(chan struct{})
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		sess := s.NewSession()
		defer sess.Close()
		bytesPerSec := *rateMB * (1 << 20)
		for {
			select {
			case <-quit:
				return
			default:
			}
			start := time.Now()
			batch := datagen.Batch(g, 256)
			st, err := sess.Ingest(batch)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fishstore-cli serve: ingest: %v\n", err)
				return
			}
			if bytesPerSec > 0 {
				want := time.Duration(float64(st.Bytes) / bytesPerSec * float64(time.Second))
				if sleep := want - time.Since(start); sleep > 0 {
					time.Sleep(sleep)
				}
			}
		}
	}()

	// Periodic subset query to exercise the scan/prefetch instrumentation.
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		if *scanSecs <= 0 {
			return
		}
		t := time.NewTicker(time.Duration(*scanSecs * float64(time.Second)))
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				// Bound the scan to the in-memory suffix: the default null
				// device cannot re-read evicted pages.
				opts := fishstore.ScanOptions{From: s.HeadAddress()}
				if _, err := s.Scan(prop, opts, func(fishstore.Record) bool {
					return true
				}); err != nil {
					fmt.Fprintf(os.Stderr, "fishstore-cli serve: scan: %v\n", err)
				}
			}
		}
	}()

	select {
	case <-stop:
	case <-done:
	}
	close(quit)
	<-ingestDone
	<-scanDone
	srv.Close()

	snap := s.Metrics()
	fmt.Fprintf(os.Stderr, "fishstore-cli serve: exiting — %d records, %d scans\n",
		int64(snap.Value("fishstore_ingest_records_total")),
		int64(snap.Value("fishstore_scans_total")))
}
