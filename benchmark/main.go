// Command benchmark is the repository's performance ledger: one scenario —
// ingest → query → checkpoint → recover — on four workloads, reported end to
// end and, in a separate traced run, layer by layer. See README.md.
//
//	bash benchmark/run.sh                      every workload, untraced
//	bash benchmark/run.sh --workload yelp_mem --seed 3 --seconds 20 --trace 1
//	bash benchmark/run.sh -repeat 2            self-check against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

type config struct {
	workload  string // "" = all
	seed      int64
	seconds   float64
	trace     bool
	corpusMB  int // 0 = each workload's own size; set by the smoke test only
	out       string
	traceFile string
	repeat    int
}

func main() {
	var cfg config
	var trace int
	var printSpec bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all of them)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated corpus and lookup keys")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long each workload measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.out, "out", "", "also write the result rows (workload, metric, value, per-round values) to this JSON file")
	flag.StringVar(&cfg.traceFile, "tracefile", "", "with -trace 1: write the spans as Chrome trace-event JSON")
	flag.IntVar(&cfg.repeat, "repeat", 1, "run the set N times and compare the spread of every end-to-end metric with its bound")
	flag.BoolVar(&printSpec, "print-spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.repeat = max(cfg.repeat, 1)
	if printSpec {
		os.Stdout.Write(specJSON())
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// row is one (workload, metric) line of the result.
type row struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	// Value is the reported number: the median of Rounds.
	Value float64 `json:"value"`
	// Rounds are the per-round values (set-up repetitions for setup_s), N
	// their count, Min and Max their range.
	N      int       `json:"n"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds"`
}

// result is one workload's run.
type result struct {
	workload          string
	rows              []row
	attempted, failed int64
	failures          []string
}

func (r *result) value(metric string) (float64, bool) {
	for _, row := range r.rows {
		if row.Metric == metric {
			return row.Value, true
		}
	}
	return 0, false
}

// line renders the result as the driver's contract: one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func (r *result) line() []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, row := range r.rows {
		metrics[row.Metric] = value{row.Value, row.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // only finite numbers and strings
	}
	return append(b, '\n')
}

var errIncorrect = errors.New("a correctness check or operation failed")

func run(cfg config) error {
	selected, err := selectWorkloads(cfg.workload)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "fishbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// A signal must not leave gigabytes of log files behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	fmt.Fprintf(os.Stderr, "# fishstore benchmark: nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.seconds, cfg.trace)

	var sets [][]*result
	var spans []span
	for i := 0; i < cfg.repeat; i++ {
		var set []*result
		for _, w := range selected {
			res, sp, err := runWorkload(cfg, w, tmp)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			report(res)
			set = append(set, res)
			spans = append(spans, sp...)
		}
		sets = append(sets, set)
	}
	last := sets[len(sets)-1]
	if cfg.out != "" {
		var rows []row
		for _, res := range last {
			rows = append(rows, res.rows...)
		}
		b, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if cfg.traceFile != "" {
		if err := writeChrome(cfg.traceFile, spans); err != nil {
			return err
		}
	}
	for _, res := range last {
		os.Stdout.Write(res.line())
	}
	for _, set := range sets {
		for _, res := range set {
			if res.failed > 0 {
				return fmt.Errorf("%s: %w", res.workload, errIncorrect)
			}
		}
	}
	if cfg.repeat > 1 && !cfg.trace {
		return compareSets(sets)
	}
	return nil
}

func selectWorkloads(name string) ([]*workload, error) {
	var out []*workload
	for i := range workloads {
		if name == "" || workloads[i].Name == name {
			out = append(out, &workloads[i])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return out, nil
}

// report prints one workload's rows for a person to read.
func report(res *result) {
	fmt.Fprintf(os.Stderr, "%-14s %-38s %14s %-10s %3s %14s %14s\n", "workload", "metric", "value", "unit", "n", "min", "max")
	for _, row := range res.rows {
		fmt.Fprintf(os.Stderr, "%-14s %-38s %14.4f %-10s %3d %14.4f %14.4f\n",
			row.Workload, row.Metric, row.Value, row.Unit, row.N, row.Min, row.Max)
	}
	fmt.Fprintf(os.Stderr, "%-14s attempted=%d failed=%d error_rate=%g\n", res.workload, res.attempted, res.failed,
		float64(res.failed)/math.Max(1, float64(res.attempted)))
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "%-14s FAILED: %s\n", res.workload, f)
	}
}

// compareSets is the -repeat self-check: the same code measured N times must
// agree with itself within each end-to-end metric's bound. A metric that does
// not is unresolved at that bound on this host: a later difference of that
// size between two commits says nothing.
func compareSets(sets [][]*result) error {
	bad := 0
	fmt.Fprintf(os.Stderr, "%-14s %-24s %10s %8s\n", "workload", "metric", "spread", "bound")
	for wi := range sets[0] {
		for _, m := range endToEnd {
			var v []float64
			for _, set := range sets {
				if x, ok := set[wi].value(m.Name); ok {
					v = append(v, x)
				}
			}
			sort.Float64s(v)
			spread := (v[len(v)-1] - v[0]) / median(v)
			verdict := ""
			if spread > m.Bound {
				verdict = "  UNRESOLVED: exceeds the bound"
				bad++
			}
			fmt.Fprintf(os.Stderr, "%-14s %-24s %9.2f%% %7.0f%%%s\n", sets[0][wi].workload, m.Name, spread*100, m.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metrics of an unchanged tree differ by more than their bound", bad)
	}
	return nil
}
