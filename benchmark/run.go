package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// workloadRun is one workload's run in progress: the runner, the per-round values of
// every metric, and the spans kept for the trace file.
type workloadRun struct {
	*runner
	cfg     config
	samples map[string][]float64
	spans   []span
}

// runWorkload runs one workload once: set-up (repeated), then
// rounds of the scenario until `seconds` have been measured.
func runWorkload(cfg config, w *workload, tmp string) (*result, []span, error) {
	if cfg.corpusMB > 0 {
		scaled := *w
		scaled.corpusMB = cfg.corpusMB
		w = &scaled
	}
	window := min(mixedWindow, time.Duration(cfg.seconds*float64(time.Second)))
	x := &workloadRun{runner: &runner{w: w, tmp: tmp, window: window}, cfg: cfg, samples: map[string][]float64{}}
	if cfg.trace {
		x.tr = newTracer()
	}
	if err := x.setUp(); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "# %s: %d records, %.1f MB, corpus sha256 %s\n",
		w.Name, x.c.records(), float64(len(x.c.slab))/1e6, x.c.sha())
	if err := x.rounds(); err != nil {
		return nil, nil, err
	}
	if x.tr != nil {
		micro, err := microLayers(w.data, x.c)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range micro {
			x.samples[k] = []float64{v}
		}
	}

	res := &result{workload: w.Name, attempted: x.attempted, failed: x.failed, failures: x.failures}
	// add reports one metric as the median of its per-round values.
	add := func(name, unit string) error {
		v := x.samples[name]
		if len(v) == 0 {
			return fmt.Errorf("metric %s was not measured", name)
		}
		lo, hi := v[0], v[0]
		for _, s := range v {
			lo, hi = math.Min(lo, s), math.Max(hi, s)
		}
		res.rows = append(res.rows, row{w.Name, name, unit, median(v), len(v), lo, hi, v})
		return nil
	}
	if cfg.trace {
		for _, m := range perLayer {
			if err := add(m.Name, m.Unit); err != nil {
				return nil, nil, err
			}
		}
		return res, x.spans, nil
	}
	for _, m := range endToEnd {
		if err := add(m.Name, m.Unit); err != nil {
			return nil, nil, err
		}
	}
	return res, x.spans, nil
}

// setups is how many times a run repeats set-up for setup_s.
const setups = 3

// setUp times the workload's set-up — corpus generation + Open + RegisterPSF
// (+ prefill when mixed) — setups times, then builds the oracle. The stores
// are discarded: every round sets up its own.
func (x *workloadRun) setUp() error {
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		x.c = generate(x.w.data, x.cfg.seed, x.w.corpusMB)
		p, err := x.prepare()
		if err != nil {
			return err
		}
		x.samples["setup_s"] = append(x.samples["setup_s"], time.Since(t0).Seconds())
		p.discard()
	}
	keyLimit := x.c.queried() // a lookup must find its key
	if x.w.mixed {
		keyLimit = x.c.prefill()
	}
	var err error
	x.o, err = buildOracle(x.w.data, x.c, x.cfg.seed, 2000, keyLimit)
	if x.tr != nil {
		x.tr.drain() // set-up is not part of the trace
	}
	return err
}

// rounds repeats the scenario on fresh stores until cfg.seconds are used up.
// In a traced run each round follows an untraced ingest pass, and the two
// rates give the tracing overhead; not on the mixed workload, whose schedule
// fixes the ingest rate, so that tracing has none to take away.
func (x *workloadRun) rounds() error {
	var untraced []float64
	begin := time.Now()
	for n := 0; ; n++ {
		// Stop when the next round would end further from the budget than
		// stopping now does.
		if elapsed := time.Since(begin).Seconds(); n > 0 && elapsed+elapsed/float64(n)/2 > x.cfg.seconds {
			break
		}
		if x.tr != nil && !x.w.mixed {
			rate, err := x.untracedIngest()
			if err != nil {
				return err
			}
			untraced = append(untraced, rate)
		}
		res, err := x.round()
		if err != nil {
			return err
		}
		x.collect(res)
	}
	if x.tr != nil {
		overhead := 0.0
		if u := median(untraced); u > 0 {
			overhead = (u - median(x.samples["ingest_rec_s"])) / u * 100
		}
		x.samples["obs.trace_overhead_pct"] = []float64{overhead}
	}
	return nil
}

// collect files a round's values under their metrics and takes the spans it
// recorded off the tracer.
func (x *workloadRun) collect(res roundResult) {
	for k, v := range res.e2e {
		x.samples[k] = append(x.samples[k], v)
	}
	for k, v := range res.layer {
		x.samples[k] = append(x.samples[k], v)
	}
	if x.tr != nil {
		if sp := x.tr.drain(); x.cfg.traceFile != "" {
			x.spans = append(x.spans, sp...)
		}
	}
}

// untracedIngest ingests the corpus once into a fresh store with the tracer
// switched off and returns the rate: the reference a traced round's ingest
// rate is compared with.
func (r *runner) untracedIngest() (float64, error) {
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	st, err := r.open()
	if err != nil {
		return 0, err
	}
	defer st.discard()
	sess := st.NewSession()
	defer sess.Close()
	var in ingestSamples
	runtime.GC()
	r.ingest(st, sess, 0, r.c.queried(), r.c.lateAt(), &in)
	return float64(in.records) / in.wall.Seconds(), nil
}
