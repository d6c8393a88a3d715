// Command fishbench regenerates the paper's tables and figures (§8 and
// appendices) against the Go reimplementation.
//
// Usage:
//
//	fishbench -exp fig11                 # one experiment
//	fishbench -exp all                   # everything, in paper order
//	fishbench -exp fig16a -data-mb 128   # bigger run
//	fishbench -list                      # available experiment ids
//
// Output is tab-separated, one header line per series, matching the rows /
// series of the corresponding paper artifact. Shapes (who wins, crossover
// points, scaling trends) are the reproduction target; absolute numbers
// depend on the host. Performance regressions are gated by the ledger in
// benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fishstore"
	"fishstore/internal/harness"
	"fishstore/internal/metrics"
	"fishstore/internal/trace"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		dataMB  = flag.Int("data-mb", 64, "data volume per measurement point (MB)")
		threads = flag.String("threads", "", "comma-separated thread sweep (default: 1,2,4,... up to GOMAXPROCS)")
		quick   = flag.Bool("quick", false, "trim sweeps for a fast smoke run")
		diskBW  = flag.Float64("disk-mbps", 256, "rate-limited 'SSD' write bandwidth (MB/s) for on-disk experiments")
		metAddr = flag.String("metrics-addr", "", "serve aggregated store metrics/pprof on this address while experiments run")

		spanOut    = flag.String("span-out", "", "write spans from all experiments as Chrome trace-event JSON to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()

	// Experiments run inside a helper so the -span-out and -cpuprofile
	// defers fire even on a failing run (os.Exit skips defers).
	os.Exit(runExperiments(*exp, *list, *dataMB, *threads, *quick, *diskBW,
		*metAddr, *spanOut, *cpuProfile))
}

func runExperiments(exp string, list bool, dataMB int, threads string, quick bool,
	diskBW float64, metAddr, spanOut, cpuProfile string) int {

	var tracer *trace.Tracer
	if spanOut != "" {
		// Every store the experiments open picks this up via the default-
		// tracer hook, the same way -metrics-addr shares one registry.
		tracer = trace.New(trace.Options{BufferSize: 1 << 16})
		fishstore.SetDefaultTracer(tracer)
	}
	if cpuProfile != "" {
		// The profile attributes each Fig 13 ingest phase by its stack
		// frame: Parse, buildPointers, hlog.(*Log).Allocate and Spec.Write,
		// linkAll, subs.notify (README "Tracing & profiling" has a
		// go tool pprof -focus recipe per phase).
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fishbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fishbench: -cpuprofile: %v\n", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if spanOut != "" {
		defer func() {
			f, err := os.Create(spanOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fishbench: -span-out: %v\n", err)
				return
			}
			defer f.Close()
			if err := tracer.WriteChrome(f); err != nil {
				fmt.Fprintf(os.Stderr, "fishbench: -span-out: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "[%d spans -> %s (%d dropped)]\n",
				len(tracer.Spans()), spanOut, tracer.Dropped())
		}()
	}

	if metAddr != "" {
		// One shared registry aggregates every store the experiments open.
		reg := metrics.NewRegistry()
		fishstore.SetDefaultMetricsRegistry(reg)
		go func() {
			if err := http.ListenAndServe(metAddr, metrics.NewMux(reg)); err != nil {
				fmt.Fprintf(os.Stderr, "fishbench: metrics endpoint: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "[metrics on http://localhost%s/metrics]\n", metAddr)
	}

	if list {
		for _, id := range harness.ExperimentOrder() {
			fmt.Println(id)
		}
		return 0
	}
	if exp == "" {
		fmt.Fprintln(os.Stderr, "fishbench: -exp required (or -list); e.g. -exp fig11")
		return 2
	}

	cfg := harness.DefaultConfig(os.Stdout)
	cfg.DataMB = dataMB
	cfg.Quick = quick
	cfg.DiskBandwidth = diskBW * (1 << 20)
	if quick {
		q := harness.QuickConfig(os.Stdout)
		q.DataMB = dataMB
		cfg = q
	}
	if threads != "" {
		var sweep []int
		for _, part := range strings.Split(threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "fishbench: bad -threads element %q\n", part)
				return 2
			}
			sweep = append(sweep, n)
		}
		cfg.Threads = sweep
	}

	exps := harness.Experiments()
	ids := []string{exp}
	if exp == "all" {
		ids = harness.ExperimentOrder()
	}
	for _, id := range ids {
		run, ok := exps[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "fishbench: unknown experiment %q (try -list)\n", id)
			return 2
		}
		start := time.Now()
		if err := run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "fishbench: %s failed: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
