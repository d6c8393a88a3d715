// Package telemetry is the workload-attribution layer: where
// internal/metrics answers "what is the store doing", telemetry answers
// "who is making it do that, and are we meeting our latency targets".
//
// It is stdlib-only and allocation-free on the recording paths:
//
//   - Per-operation latencies are metrics.Histogram, the store's one
//     power-of-two histogram (a few atomic adds per sample). Histograms are
//     mergeable, so per-shard collectors combine into exactly the quantiles
//     one collector over the union of samples would report — and the same
//     objects are what the metrics registry exports.
//   - TopK is a space-saving heavy-hitter sketch attributing records and
//     bytes to a bounded set of string keys (PSF names, property values,
//     caller/tenant labels) with a per-key overestimation bound.
//   - Watchdog periodically turns SLO targets (p99 ingest-batch latency,
//     scan p95, ...) into burn rates — the observed fraction of operations
//     over target divided by the quantile's error budget — and reports an
//     ok / degraded / breach verdict.
//
// A Collector bundles one histogram per operation kind with the heavy-hitter
// dimensions; every method is safe on a nil receiver so disabled telemetry
// degrades to a nil check at each instrumented site.
package telemetry

import (
	"sync/atomic"
	"time"

	"fishstore/internal/metrics"
)

// Op enumerates the operation kinds whose latency the collector tracks.
type Op int

const (
	// OpIngestBatch is one Session.Ingest call (a batch of records).
	OpIngestBatch Op = iota
	// OpIndexScan is one indexed (hash-chain) scan segment.
	OpIndexScan
	// OpFullScan is one full-sweep scan segment (slow or pointer-matching
	// fast path).
	OpFullScan
	// OpCheckpoint is one Store.Checkpoint call.
	OpCheckpoint

	numOps
)

var opNames = [numOps]string{"ingest_batch", "index_scan", "full_scan", "checkpoint"}

func (o Op) String() string {
	if o < 0 || o >= numOps {
		return "unknown"
	}
	return opNames[o]
}

// Config bounds a Collector's memory and sampling cost.
type Config struct {
	// TopK is the per-dimension heavy-hitter capacity (default 32).
	TopK int
	// SampleEvery records property-value attribution for one in every N
	// ingested records (default 16): per-(PSF,value) keys are unbounded, so
	// the hot path pays the key-building cost only on sampled records.
	SampleEvery int
}

// Collector aggregates per-operation latency histograms and heavy-hitter
// attribution for one store (or one shard — collectors merge).
type Collector struct {
	ops [numOps]metrics.Histogram

	// psfs attributes ingested records/payload bytes to the PSF that
	// indexed them; props does the same per (PSF, value) property on
	// sampled records; tenants attributes ingest and scan work to the
	// caller label; queried attributes scan demand to the property asked
	// for.
	psfs    *TopK
	props   *TopK
	tenants *TopK
	queried *TopK

	sampleN   uint64
	sampleCtr atomic.Uint64
}

// New builds a collector.
func New(cfg Config) *Collector {
	if cfg.TopK <= 0 {
		cfg.TopK = 32
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 16
	}
	return &Collector{
		psfs:    NewTopK(cfg.TopK),
		props:   NewTopK(cfg.TopK),
		tenants: NewTopK(cfg.TopK),
		queried: NewTopK(cfg.TopK),
		sampleN: uint64(cfg.SampleEvery),
	}
}

// Op returns the latency histogram for op, in nanoseconds (nil on a nil
// collector; Histogram methods are nil-safe).
func (c *Collector) Op(op Op) *metrics.Histogram {
	if c == nil || op < 0 || op >= numOps {
		return nil
	}
	return &c.ops[op]
}

// RecordOp records one operation latency: three or four atomic adds.
func (c *Collector) RecordOp(op Op, d time.Duration) {
	c.Op(op).Observe(int64(d))
}

// ObservePSF attributes records and payload bytes to a PSF by name.
func (c *Collector) ObservePSF(name string, records, bytes int64) {
	if c == nil {
		return
	}
	c.psfs.Observe(name, records, bytes)
}

// ObserveTenant attributes records and bytes to a caller/tenant label.
func (c *Collector) ObserveTenant(label string, records, bytes int64) {
	if c == nil {
		return
	}
	c.tenants.Observe(label, records, bytes)
}

// ObserveQueried attributes one scan's demand to the property it asked for.
func (c *Collector) ObserveQueried(key string, records, bytes int64) {
	if c == nil {
		return
	}
	c.queried.Observe(key, records, bytes)
}

// SampleProperty reports whether the current record should carry
// property-value attribution (deterministic 1-in-SampleEvery).
func (c *Collector) SampleProperty() bool {
	if c == nil {
		return false
	}
	return c.sampleCtr.Add(1)%c.sampleN == 0
}

// ObservePropertyKey attributes a sampled record to one (PSF, value)
// property. key may be a reusable scratch buffer: it is only retained (and
// then copied) when the property is not already tracked.
func (c *Collector) ObservePropertyKey(key []byte, records, bytes int64) {
	if c == nil {
		return
	}
	c.props.ObserveKey(key, records, bytes)
}

// Merge folds other's histograms and heavy hitters into c (scatter-gather:
// per-shard collectors merge into a cluster view). Safe against concurrent
// recording on either side.
func (c *Collector) Merge(other *Collector) {
	if c == nil || other == nil {
		return
	}
	for i := range c.ops {
		c.ops[i].Merge(&other.ops[i])
	}
	c.psfs.Merge(other.psfs)
	c.props.Merge(other.props)
	c.tenants.Merge(other.tenants)
	c.queried.Merge(other.queried)
}

// OpSnapshot is one operation's latency summary.
type OpSnapshot struct {
	Op          string  `json:"op"`
	Count       int64   `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	SLOBreaches int64   `json:"slo_breaches,omitempty"`
}

// Snapshot is the live answer to "who is eating the store's budget": one
// latency summary per operation plus the top-K heavy hitters per dimension.
type Snapshot struct {
	Ops                 []OpSnapshot  `json:"ops"`
	TopPSFs             []HeavyHitter `json:"top_psfs"`
	TopProperties       []HeavyHitter `json:"top_properties"`
	TopTenants          []HeavyHitter `json:"top_tenants,omitempty"`
	TopQueried          []HeavyHitter `json:"top_queried,omitempty"`
	PropertySampleEvery uint64        `json:"property_sample_every,omitempty"`
}

// Snapshot returns a point-in-time view with at most topN heavy hitters per
// dimension. On a nil collector it returns an empty snapshot.
func (c *Collector) Snapshot(topN int) *Snapshot {
	if c == nil {
		return &Snapshot{}
	}
	snap := &Snapshot{PropertySampleEvery: c.sampleN}
	for op := Op(0); op < numOps; op++ {
		s := c.ops[op].Snapshot()
		nanos := func(q float64) float64 { return s.Quantile(q) / float64(time.Second) }
		snap.Ops = append(snap.Ops, OpSnapshot{
			Op:          op.String(),
			Count:       s.Count,
			MeanSeconds: s.Mean() / float64(time.Second),
			P50Seconds:  nanos(0.50),
			P95Seconds:  nanos(0.95),
			P99Seconds:  nanos(0.99),
			SLOBreaches: s.Breaches,
		})
	}
	snap.TopPSFs = c.psfs.Top(topN)
	snap.TopProperties = c.props.Top(topN)
	snap.TopTenants = c.tenants.Top(topN)
	snap.TopQueried = c.queried.Top(topN)
	return snap
}
