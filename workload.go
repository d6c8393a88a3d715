package fishstore

import (
	"fishstore/internal/metrics"
	"fishstore/internal/telemetry"
	"fishstore/internal/trace"
)

// This file is the store-level glue for the workload-attribution layer
// (internal/telemetry): SLO-watchdog lifecycle, the /debug/fishstore/workload
// and /debug/fishstore/health endpoints, the fishstore_slo_* Prometheus
// surface, and the slo.burn events the watchdog feeds the event stream. The
// collector's per-operation histograms are exported by the metrics registry
// itself (newStoreMetrics).

// wireWorkload starts the SLO watchdog per Options and mounts the
// debug endpoints and SLO gauges.
func (s *Store) wireWorkload() {
	if s.opts.SLO != nil {
		s.watchdog = telemetry.NewWatchdog(s.tele, *s.opts.SLO, s.sloTick)
	}
	reg := s.metrics.reg
	reg.RegisterDebug("workload", func() any { return s.tele.Snapshot(10) })
	reg.RegisterDebug("health", func() any { return s.health() })
	s.registerSLOGauges()
	// Start ticking only after the endpoints exist: the first tick may
	// already emit events.
	s.watchdog.Start()
}

// registerSLOGauges exports the SLO burn rates and the health verdict as
// Prometheus gauges (snapshot-time evaluation; first store wins on a shared
// registry, like every other GaugeFunc here).
func (s *Store) registerSLOGauges() {
	reg := s.metrics.reg
	if !reg.Enabled() {
		return
	}
	for _, obj := range s.watchdog.Objectives() {
		name := obj.Name
		reg.GaugeFunc("fishstore_slo_burn",
			"SLO burn rate per objective: the window fraction of operations "+
				"over target divided by the error budget (1 = budget spent "+
				"exactly as fast as it accrues).",
			func() float64 { return s.watchdog.Burn(name) },
			metrics.L("slo", name))
	}
	reg.GaugeFunc("fishstore_slo_health",
		"Health verdict: 0 ok, 1 degraded, 2 breach (folds in the sticky "+
			"degraded read-only state).",
		func() float64 {
			switch s.health().Status {
			case telemetry.StatusBreach:
				return 2
			case telemetry.StatusDegraded:
				return 1
			}
			return 0
		})
}

// sloTick is the watchdog's per-evaluation callback: it feeds burning
// objectives into the event stream (flight recorder + TraceSink), so a
// crash or a support bundle carries the burn timeline.
func (s *Store) sloTick(r telemetry.Report) {
	if r.Status == telemetry.StatusOK {
		return
	}
	for _, b := range r.SLOs {
		if b.Burn < 1 {
			continue
		}
		s.metrics.event("slo.burn",
			trace.Str("slo", b.Name),
			trace.Str("state", b.State),
			trace.Float("burn", b.Burn),
			trace.Int("window_ops", b.WindowOps),
			trace.Int("window_breaches", b.WindowBreaches))
	}
}

// Health is the machine-readable verdict served at /debug/fishstore/health.
type Health struct {
	// Status is ok, degraded, or breach: the worse of the SLO watchdog's
	// verdict and the store's sticky degraded read-only state (which is
	// always a breach — the store can no longer persist writes).
	Status string `json:"status"`
	// Degraded mirrors Stats.Degraded: a permanent I/O failure has flipped
	// the store read-only.
	Degraded      bool   `json:"degraded"`
	DegradedCause string `json:"degraded_cause,omitempty"`
	// LogFull mirrors Stats.LogFull: the device is out of space and ingestion
	// is refused until space is reclaimed (a recoverable state, reported as
	// degraded rather than breach).
	LogFull      bool   `json:"log_full,omitempty"`
	LogFullCause string `json:"log_full_cause,omitempty"`
	// SLO carries the watchdog's latest burn-rate report (nil when no SLO
	// targets are configured).
	SLO *telemetry.Report `json:"slo,omitempty"`
}

// health computes the current health verdict.
func (s *Store) health() Health {
	h := Health{Status: telemetry.StatusOK}
	if deg, cause := sticky(&s.degraded, &s.degradedCause); deg {
		h.Status = telemetry.StatusBreach
		h.Degraded = true
		h.DegradedCause = cause
	}
	if full, cause := sticky(&s.logFull, &s.logFullCause); full {
		h.LogFull = true
		h.LogFullCause = cause
		if h.Status == telemetry.StatusOK {
			h.Status = telemetry.StatusDegraded
		}
	}
	if s.watchdog != nil {
		r := s.watchdog.Report()
		h.SLO = &r
		if h.Status != telemetry.StatusBreach {
			switch r.Status {
			case telemetry.StatusBreach:
				h.Status = telemetry.StatusBreach
			case telemetry.StatusDegraded:
				h.Status = telemetry.StatusDegraded
			}
		}
	}
	return h
}
