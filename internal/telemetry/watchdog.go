package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// SLO declares latency targets for the tracked operations. A zero target
// leaves that operation unwatched. Each target is a quantile bound — e.g.
// IngestBatchP99 says "99% of ingest batches complete within this long" —
// so its error budget is the quantile's tail mass (1% for a p99 target, 5%
// for a p95 target).
type SLO struct {
	// IngestBatchP99 bounds the 99th percentile of Session.Ingest latency.
	IngestBatchP99 time.Duration
	// IndexScanP95 bounds the 95th percentile of indexed scan-segment
	// latency.
	IndexScanP95 time.Duration
	// FullScanP95 bounds the 95th percentile of full-sweep scan-segment
	// latency.
	FullScanP95 time.Duration
	// CheckpointP99 bounds the 99th percentile of checkpoint latency.
	CheckpointP99 time.Duration

	// BreachBurnRate is the burn rate at or above which an objective is
	// reported as "breach" rather than "degraded" (default 8 — the classic
	// fast-burn paging threshold).
	BreachBurnRate float64
	// Interval is the watchdog's evaluation period (default 1s).
	Interval time.Duration
}

// Objective is one armed target: an operation, the quantile it bounds, and
// the latency it must stay under.
type Objective struct {
	Name     string
	Op       Op
	Quantile float64
	Target   time.Duration
}

// objectives expands the non-zero targets.
func (s SLO) objectives() []Objective {
	var out []Objective
	if s.IngestBatchP99 > 0 {
		out = append(out, Objective{Name: "ingest_batch_p99", Op: OpIngestBatch, Quantile: 0.99, Target: s.IngestBatchP99})
	}
	if s.IndexScanP95 > 0 {
		out = append(out, Objective{Name: "index_scan_p95", Op: OpIndexScan, Quantile: 0.95, Target: s.IndexScanP95})
	}
	if s.FullScanP95 > 0 {
		out = append(out, Objective{Name: "full_scan_p95", Op: OpFullScan, Quantile: 0.95, Target: s.FullScanP95})
	}
	if s.CheckpointP99 > 0 {
		out = append(out, Objective{Name: "checkpoint_p99", Op: OpCheckpoint, Quantile: 0.99, Target: s.CheckpointP99})
	}
	return out
}

// Verdict states, ordered by severity.
const (
	StatusOK       = "ok"
	StatusDegraded = "degraded"
	StatusBreach   = "breach"
)

// BurnRate is one objective's evaluation over the last watchdog window.
// Burn is the SRE burn rate: the fraction of window operations that
// exceeded the target, divided by the objective's error budget (1−quantile).
// Burn 1 means the error budget is being spent exactly as fast as it
// accrues; above 1 the SLO is being violated.
type BurnRate struct {
	Name           string  `json:"name"`
	Op             string  `json:"op"`
	Quantile       float64 `json:"quantile"`
	TargetSeconds  float64 `json:"target_seconds"`
	WindowOps      int64   `json:"window_ops"`
	WindowBreaches int64   `json:"window_breaches"`
	Ops            int64   `json:"ops"` // cumulative: the sum of every window so far
	Burn           float64 `json:"burn"`
	State          string  `json:"state"` // ok | degraded | breach
}

// Report is the watchdog's latest verdict: the worst objective state plus
// every objective's burn rate.
type Report struct {
	Status string     `json:"status"` // ok | degraded | breach
	SLOs   []BurnRate `json:"slos"`
}

// Watchdog periodically evaluates SLO objectives against a collector's
// histograms. Start and Stop are idempotent and safe to race with each other
// and with recording.
type Watchdog struct {
	col        *Collector
	objectives []Objective
	breachBurn float64
	interval   time.Duration
	onTick     func(Report)

	mu      sync.Mutex
	started bool
	stop    chan struct{}
	done    chan struct{}

	// window is the previous tick's cumulative (count, breaches) per
	// objective; deltas against it form the burn window. Touched only by
	// the watchdog goroutine.
	window []struct{ count, breaches int64 }

	lastReport atomic.Pointer[Report]
}

// NewWatchdog builds a watchdog over col for the given targets and arms the
// breach thresholds on the collector's histograms. onTick, if non-nil, is
// invoked with each evaluation's report (from the watchdog goroutine).
func NewWatchdog(col *Collector, slo SLO, onTick func(Report)) *Watchdog {
	if slo.BreachBurnRate <= 0 {
		slo.BreachBurnRate = 8
	}
	if slo.Interval <= 0 {
		slo.Interval = time.Second
	}
	objs := slo.objectives()
	w := &Watchdog{
		col:        col,
		objectives: objs,
		breachBurn: slo.BreachBurnRate,
		interval:   slo.Interval,
		onTick:     onTick,
		window:     make([]struct{ count, breaches int64 }, len(objs)),
	}
	for _, obj := range objs {
		col.Op(obj.Op).SetThreshold(int64(obj.Target))
	}
	return w
}

// Objectives returns the armed objectives (for gauge registration).
func (w *Watchdog) Objectives() []Objective {
	if w == nil {
		return nil
	}
	return w.objectives
}

// Start launches the evaluation goroutine. Idempotent.
func (w *Watchdog) Start() {
	if w == nil || len(w.objectives) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		return
	}
	w.started = true
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.run(w.stop, w.done)
}

// Stop halts the evaluation goroutine and waits for it to exit. Idempotent;
// safe to call without Start.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	if !w.started {
		w.mu.Unlock()
		return
	}
	w.started = false
	stop, done := w.stop, w.done
	w.mu.Unlock()
	close(stop)
	<-done
}

func (w *Watchdog) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			r := w.evaluate()
			w.lastReport.Store(&r)
			if w.onTick != nil {
				w.onTick(r)
			}
		}
	}
}

// evaluate computes one window's burn rates. Called only from the watchdog
// goroutine (it mutates the window state).
func (w *Watchdog) evaluate() Report {
	r := Report{Status: StatusOK}
	for i, obj := range w.objectives {
		h := w.col.Op(obj.Op)
		count, breaches := h.Count(), h.Breaches()
		dc := count - w.window[i].count
		db := breaches - w.window[i].breaches
		w.window[i].count, w.window[i].breaches = count, breaches

		b := BurnRate{
			Name:          obj.Name,
			Op:            obj.Op.String(),
			Quantile:      obj.Quantile,
			TargetSeconds: obj.Target.Seconds(),
			Ops:           count,
			State:         StatusOK,
		}
		if dc > 0 {
			b.WindowOps, b.WindowBreaches = dc, db
			budget := 1 - obj.Quantile
			if budget > 0 {
				b.Burn = (float64(db) / float64(dc)) / budget
			}
			switch {
			case b.Burn >= w.breachBurn:
				b.State = StatusBreach
			case b.Burn >= 1:
				b.State = StatusDegraded
			}
		}
		if b.State == StatusBreach || (b.State == StatusDegraded && r.Status == StatusOK) {
			r.Status = b.State
		}
		r.SLOs = append(r.SLOs, b)
	}
	return r
}

// Report returns the most recent evaluation (an all-ok report listing the
// objectives before the first tick).
func (w *Watchdog) Report() Report {
	if w == nil {
		return Report{Status: StatusOK}
	}
	if r := w.lastReport.Load(); r != nil {
		return *r
	}
	r := Report{Status: StatusOK}
	for _, obj := range w.objectives {
		r.SLOs = append(r.SLOs, BurnRate{
			Name:          obj.Name,
			Op:            obj.Op.String(),
			Quantile:      obj.Quantile,
			TargetSeconds: obj.Target.Seconds(),
			State:         StatusOK,
		})
	}
	return r
}

// Burn returns the latest burn rate for the named objective (0 when absent
// or never evaluated).
func (w *Watchdog) Burn(name string) float64 {
	if w == nil {
		return 0
	}
	r := w.lastReport.Load()
	if r == nil {
		return 0
	}
	for _, b := range r.SLOs {
		if b.Name == name {
			return b.Burn
		}
	}
	return 0
}
