package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"fishstore"
	"fishstore/internal/telemetry"
)

// topMain implements `fishstore-cli top`: a live workload-attribution view
// of a running store through /debug/fishstore/workload and
// /debug/fishstore/health — per-operation latency quantiles, the heavy
// hitters per dimension (ingested PSFs, queried properties), and the SLO
// watchdog's burn-rate verdict.
//
//	fishstore-cli serve -metrics-addr :9187 &
//	fishstore-cli top -addr localhost:9187
//	fishstore-cli top -addr localhost:9187 -watch 2s
//
// Exit status: 0 = ok, 1 = an endpoint could not be fetched or decoded.
func topMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr  = fs.String("addr", "localhost:9187", "store observability address (host:port or URL)")
		topN  = fs.Int("n", 10, "heavy hitters to show per dimension")
		watch = fs.Duration("watch", 0, "redraw every interval (0 = print once and exit)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	for {
		var wl telemetry.Snapshot
		if err := fetchJSON(client, base+"/debug/fishstore/workload", &wl); err != nil {
			fmt.Fprintf(stderr, "fishstore-cli top: %v\n", err)
			return 1
		}
		var health fishstore.Health
		if err := fetchJSON(client, base+"/debug/fishstore/health", &health); err != nil {
			fmt.Fprintf(stderr, "fishstore-cli top: %v\n", err)
			return 1
		}
		if *watch > 0 {
			fmt.Fprint(stdout, "\033[H\033[2J") // home + clear, like top(1)
		}
		printTop(stdout, wl, health, *topN)
		if *watch <= 0 {
			return 0
		}
		time.Sleep(*watch)
	}
}

func printTop(w io.Writer, wl telemetry.Snapshot, health fishstore.Health, topN int) {
	fmt.Fprintf(w, "health: %s", health.Status)
	if health.Degraded {
		fmt.Fprintf(w, " (degraded: %s)", health.DegradedCause)
	}
	fmt.Fprintln(w)
	if health.SLO != nil {
		for _, b := range health.SLO.SLOs {
			fmt.Fprintf(w, "  slo %-18s target %-10s burn %5.2f (%s) window %d ops, %d over\n",
				b.Name, fmtSeconds(b.TargetSeconds), b.Burn, b.State,
				b.WindowOps, b.WindowBreaches)
		}
	}

	fmt.Fprintf(w, "\n%-14s %10s %10s %10s %10s %10s %9s\n",
		"op", "count", "mean", "p50", "p95", "p99", "breaches")
	for _, op := range wl.Ops {
		if op.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %10d %10s %10s %10s %10s %9d\n",
			op.Op, op.Count, fmtSeconds(op.MeanSeconds), fmtSeconds(op.P50Seconds),
			fmtSeconds(op.P95Seconds), fmtSeconds(op.P99Seconds), op.SLOBreaches)
	}

	printHitters(w, "top PSFs (ingest)", wl.TopPSFs, topN)
	printHitters(w, "top queried properties", wl.TopQueried, topN)
}

func printHitters(w io.Writer, title string, hh []telemetry.HeavyHitter, topN int) {
	if len(hh) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s\n", title)
	if topN > 0 && len(hh) > topN {
		hh = hh[:topN]
	}
	for _, h := range hh {
		fmt.Fprintf(w, "  %-40s %12d recs %10s", h.Key, h.Records, fmtBytes(h.Bytes))
		if h.ErrRecords > 0 {
			fmt.Fprintf(w, " (±%d)", h.ErrRecords)
		}
		fmt.Fprintln(w)
	}
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
