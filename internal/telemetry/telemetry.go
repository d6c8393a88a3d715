// Package telemetry is the workload-attribution layer: where
// internal/metrics answers "what is the store doing", telemetry answers
// "which properties make it do that, and are we meeting our latency
// targets".
//
// It is stdlib-only and allocation-free on the recording paths:
//
//   - Per-operation latencies are metrics.Histogram, the store's one
//     power-of-two histogram (a few atomic adds per sample); the same
//     objects are what the metrics registry exports.
//   - TopK is a space-saving heavy-hitter sketch attributing records and
//     bytes to a bounded set of string keys (the PSFs that indexed ingested
//     records, the properties scans asked for) with a per-key
//     overestimation bound.
//   - Watchdog periodically turns SLO targets (p99 ingest-batch latency,
//     scan p95, ...) into burn rates — the observed fraction of operations
//     over target divided by the quantile's error budget — and reports an
//     ok / degraded / breach verdict.
//
// A Collector bundles one histogram per operation kind with the two
// heavy-hitter dimensions; every method is safe on a nil receiver so
// disabled telemetry degrades to a nil check at each instrumented site.
package telemetry

import (
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

// topKCapacity is each heavy-hitter dimension's key capacity.
const topKCapacity = 32

// Collector aggregates per-operation latency histograms and heavy-hitter
// attribution for one store.
type Collector struct {
	ops [numOps]metrics.Histogram

	// psfs attributes ingested records/payload bytes to the PSF that
	// indexed them; queried attributes scan demand to the property asked
	// for.
	psfs    *TopK
	queried *TopK
}

// New builds a collector.
func New() *Collector {
	return &Collector{
		psfs:    NewTopK(topKCapacity),
		queried: NewTopK(topKCapacity),
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

// ObserveQueried attributes one scan's demand to the property it asked
// for, keyed name=value. The key is built on the stack and copied only
// when the sketch starts tracking it.
func (c *Collector) ObserveQueried(name string, value []byte, records, bytes int64) {
	if c == nil {
		return
	}
	var buf [64]byte
	key := append(append(append(buf[:0], name...), '='), value...)
	c.queried.ObserveBytes(key, records, bytes)
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
	Ops        []OpSnapshot  `json:"ops"`
	TopPSFs    []HeavyHitter `json:"top_psfs"`
	TopQueried []HeavyHitter `json:"top_queried,omitempty"`
}

// Snapshot returns a point-in-time view with at most topN heavy hitters per
// dimension. On a nil collector it returns an empty snapshot.
func (c *Collector) Snapshot(topN int) *Snapshot {
	if c == nil {
		return &Snapshot{}
	}
	snap := &Snapshot{}
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
	snap.TopQueried = c.queried.Top(topN)
	return snap
}
