package metrics

import (
	"math/bits"
	"sync/atomic"
)

// HistogramBuckets is the fixed bucket count: bucket 0 holds non-positive
// samples, bucket i (i >= 1) holds samples whose bit length is i, i.e. the
// half-open range [2^(i-1), 2^i). 63 value buckets cover every positive
// int64 (~292 years of nanoseconds), so the histogram never saturates.
const HistogramBuckets = 64

// Histogram is FishStore's one power-of-two histogram: a fixed-size,
// mergeable quantile sketch over int64 samples (latencies in nanoseconds,
// sizes in bytes, chain lengths). Observe is a few atomic adds with no
// locks and no allocation; quantiles interpolate linearly inside the matched
// bucket, so the relative error is bounded by the bucket width.
//
// Merging adds bucket counts: bucketing is deterministic, so merging two
// histograms recorded over disjoint sample sets yields exactly the state —
// and therefore the quantiles — of one histogram recorded over the union.
//
// An armed SLO threshold (SetThreshold) additionally counts the samples
// above it. All methods are safe on a nil receiver and for concurrent use.
type Histogram struct {
	count     atomic.Int64
	sum       atomic.Int64
	breaches  atomic.Int64
	threshold atomic.Int64
	buckets   [HistogramBuckets]atomic.Int64
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLe returns the largest integer sample bucket i holds: 2^i − 1 (0 for
// bucket 0). It is the bucket's exact Prometheus "le" bound.
func BucketLe(i int) int64 { return int64(uint64(1)<<i - 1) }

// Observe records one sample: three atomic adds, plus one load (and, for
// samples over an armed threshold, one more add).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	if t := h.threshold.Load(); t > 0 && v > t {
		h.breaches.Add(1)
	}
}

// SetThreshold arms SLO breach counting: samples strictly above t (in the
// unit of Observe) increment the breach counter. 0 disarms.
func (h *Histogram) SetThreshold(t int64) {
	if h != nil {
		h.threshold.Store(t)
	}
}

// Count returns the number of samples (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the raw sum of samples (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Breaches returns how many samples exceeded the threshold while armed.
func (h *Histogram) Breaches() int64 {
	if h == nil {
		return 0
	}
	return h.breaches.Load()
}

// Merge adds other's samples into h. Safe against concurrent Observes on
// either side (each bucket is added atomically).
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	h.breaches.Add(other.breaches.Load())
	for i := range h.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}

// Quantile returns the q-quantile (q in [0,1]) of the samples.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count    int64                   `json:"count"`
	Sum      int64                   `json:"sum"`
	Breaches int64                   `json:"breaches,omitempty"`
	Buckets  [HistogramBuckets]int64 `json:"-"`
}

// Snapshot copies the histogram's state. Bucket loads are individually
// atomic; a snapshot taken under concurrent recording may straddle a sample,
// which quantile interpolation and Prometheus both tolerate.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var out HistogramSnapshot
	if h == nil {
		return out
	}
	out.Count = h.count.Load()
	out.Sum = h.sum.Load()
	out.Breaches = h.breaches.Load()
	for i := range h.buckets {
		out.Buckets[i] = h.buckets[i].Load()
	}
	return out
}

// Mean returns the mean sample (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile locates the bucket holding the fractional rank q·(count−1) and
// interpolates linearly inside its range [2^(i-1), 2^i). It is a pure
// function of the bucket counts, so merged and union histograms agree
// exactly.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := int64(0)
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := q * float64(total-1)
	cum := 0.0
	lastNonEmpty := 0
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if rank < cum+fc {
			lo, hi := bucketRange(i)
			frac := min((rank-cum+0.5)/fc, 1)
			return lo + (hi-lo)*frac
		}
		cum += fc
		lastNonEmpty = i
	}
	_, hi := bucketRange(lastNonEmpty)
	return hi
}

// bucketRange returns bucket i's value range [lo, hi).
func bucketRange(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}
