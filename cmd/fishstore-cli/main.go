// Command fishstore-cli is a small interactive demonstration of the
// FishStore storage layer: it ingests newline-delimited JSON from a file
// (or generates a synthetic dataset), registers PSFs from the command line,
// and answers subset-retrieval queries.
//
// Examples:
//
//	# Ingest a file, group by repo.name, and retrieve one group:
//	fishstore-cli -in events.ndjson \
//	    -project repo.name \
//	    -query 'repo.name=spark'
//
//	# Generate 100MB of synthetic Github events, index a predicate, count:
//	fishstore-cli -gen github -gen-mb 100 \
//	    -predicate 'type == "PushEvent"' \
//	    -query 'pred=true' -count
//
//	# Run a live store with continuous ingestion and a Prometheus/pprof
//	# observability endpoint:
//	fishstore-cli serve -metrics-addr :9187
//
//	# fsck a log file against its checkpoint after a crash:
//	fishstore-cli verify -log store.log -ckpt ckpt/
//
//	# Inspect a live store: PSF lifecycle, chain histograms, scan decisions:
//	fishstore-cli inspect -addr localhost:9187 -flight
//
//	# Pull operation spans from a tracing store as Chrome trace-event JSON:
//	fishstore-cli serve -metrics-addr :9187 -spans &
//	fishstore-cli trace -addr localhost:9187 -o spans.json
//
//	# Live workload attribution: per-op latency quantiles, heavy hitters,
//	# SLO burn rates:
//	fishstore-cli top -addr localhost:9187 -watch 2s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fishstore"
	"fishstore/internal/datagen"
	"fishstore/internal/psf"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fishstore-cli: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "verify" {
		os.Exit(verifyMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "inspect" {
		os.Exit(inspectMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(traceMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		os.Exit(topMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(ingestMain(os.Args[1:], os.Stdout, os.Stderr))
}

// ingestMain implements the default command: ingest a file or a synthetic
// dataset, register the PSFs named on the command line, and answer one
// query. Exit status: 0 = done, 1 = failed (including unreadable input,
// such as a line over 16 MiB), 2 = bad flags.
func ingestMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fishstore-cli", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "newline-delimited JSON input file")
		gen       = fs.String("gen", "", "generate a synthetic dataset instead: github|twitter|yelp")
		genMB     = fs.Int("gen-mb", 16, "synthetic data volume (MB)")
		project   = fs.String("project", "", "register a field-projection PSF on this dotted path")
		predicate = fs.String("predicate", "", "register a predicate PSF (named 'pred')")
		query     = fs.String("query", "", "retrieve: 'field=value' for -project, 'pred=true' for -predicate")
		count     = fs.Bool("count", false, "print only the match count")
		limit     = fs.Int("limit", 10, "max records to print (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "fishstore-cli: "+format+"\n", args...)
		return 1
	}

	s, err := fishstore.Open(fishstore.Options{})
	if err != nil {
		return fail("open: %v", err)
	}
	defer s.Close()

	ids := map[string]psf.ID{}
	if *project != "" {
		id, _, err := s.RegisterPSF(psf.Projection(*project))
		if err != nil {
			return fail("register projection: %v", err)
		}
		ids[*project] = id
	}
	if *predicate != "" {
		def, err := psf.Predicate("pred", *predicate)
		if err != nil {
			return fail("compile predicate: %v", err)
		}
		id, _, err := s.RegisterPSF(def)
		if err != nil {
			return fail("register predicate: %v", err)
		}
		ids["pred"] = id
	}

	// Ingest.
	sess := s.NewSession()
	defer sess.Close() // idempotent; closes on the error paths
	start := time.Now()
	var records, bytes int64
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return fail("%v", err)
		}
		st, err := sess.IngestReader(f, 256, 0)
		f.Close()
		if err != nil {
			return fail("ingest: %v", err)
		}
		records, bytes = int64(st.Records), st.Bytes
	case *gen != "":
		var g datagen.Generator
		switch *gen {
		case "github":
			g = datagen.NewGithub(1, 0)
		case "twitter":
			g = datagen.NewTwitter(1, 0)
		case "yelp":
			g = datagen.NewYelp(1, 0)
		default:
			return fail("unknown -gen %q", *gen)
		}
		remaining := int64(*genMB) << 20
		for remaining > 0 {
			st, err := sess.Ingest(datagen.Batch(g, 256))
			if err != nil {
				return fail("ingest: %v", err)
			}
			records += int64(st.Records)
			bytes += st.Bytes
			remaining -= st.Bytes
		}
	default:
		return fail("need -in FILE or -gen DATASET")
	}
	sess.Close()
	elapsed := time.Since(start)
	fmt.Fprintf(stderr, "ingested %d records (%.1f MB) in %v — %.1f MB/s\n",
		records, float64(bytes)/(1<<20), elapsed.Round(time.Millisecond),
		float64(bytes)/(1<<20)/elapsed.Seconds())

	if *query == "" {
		return 0
	}
	name, value, ok := strings.Cut(*query, "=")
	if !ok {
		return fail("bad -query %q (want name=value)", *query)
	}
	id, ok := ids[name]
	if !ok {
		return fail("query name %q matches no registered PSF", name)
	}
	var prop fishstore.Property
	switch value {
	case "true":
		prop = fishstore.PropertyBool(id, true)
	case "false":
		prop = fishstore.PropertyBool(id, false)
	default:
		prop = fishstore.PropertyString(id, value)
		// Numeric values are common for projections; try to detect.
		var f float64
		if _, err := fmt.Sscanf(value, "%g", &f); err == nil && fmt.Sprintf("%g", f) == value {
			prop = fishstore.PropertyNumber(id, f)
		}
	}

	qStart := time.Now()
	var matched int64
	printed := 0
	st, err := s.Scan(prop, fishstore.ScanOptions{}, func(r fishstore.Record) bool {
		matched++
		if !*count && (*limit == 0 || printed < *limit) {
			fmt.Fprintf(stdout, "%s\n", r.Payload)
			printed++
		}
		return true
	})
	if err != nil {
		return fail("scan: %v", err)
	}
	fmt.Fprintf(stderr, "matched %d records in %v (visited %d, plan %v)\n",
		matched, time.Since(qStart).Round(time.Microsecond), st.Visited, st.Plan)
	if *count {
		fmt.Fprintln(stdout, matched)
	}
	return 0
}
