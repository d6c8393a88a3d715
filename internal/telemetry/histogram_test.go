package telemetry

import (
	"math/rand"
	"testing"
	"time"

	"fishstore/internal/metrics"
)

// The collector's per-operation latencies are metrics.Histogram. These tests
// pin the quantile, merge and threshold behaviour the workload view, the
// watchdog and the registry's merged export rely on.

func TestSketchBasics(t *testing.T) {
	var s metrics.Histogram
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	for i := int64(1); i <= 1000; i++ {
		s.Observe(i * 1000) // 1µs .. 1ms
	}
	if s.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count())
	}
	snap := s.Snapshot()
	if snap.Sum != 1000*1001/2*1000 {
		t.Fatalf("sum = %d", snap.Sum)
	}
	p50 := snap.Quantile(0.5)
	// True median is ~500µs; power-of-two buckets bound the error to the
	// bucket width [262144, 524288) .. [524288, 1048576).
	if p50 < 250_000 || p50 > 1_050_000 {
		t.Fatalf("p50 = %v, want ~500000 within bucket error", p50)
	}
	if p99 := snap.Quantile(0.99); p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if q0 := snap.Quantile(0); q0 > snap.Quantile(1) {
		t.Fatalf("q0 %v > q1", q0)
	}
}

func TestSketchZeroAndNegative(t *testing.T) {
	var s metrics.Histogram
	s.Observe(0)
	s.Observe(-5)
	s.Observe(7)
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("q0 = %v, want 0", q)
	}
}

func TestSketchNilSafe(t *testing.T) {
	var s *metrics.Histogram
	s.Observe(5)
	s.SetThreshold(1)
	s.Merge(nil)
	if s.Count() != 0 || s.Breaches() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must be inert")
	}
}

// TestSketchMergeAgreement pins the mergeability contract: two histograms
// recorded over a split workload, merged, agree exactly — same bucket
// state, same quantiles — with one histogram recorded over the union.
func TestSketchMergeAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var a, b, union metrics.Histogram
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 2e6) // long-tailed latencies around 2ms
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		union.Observe(v)
	}
	var merged metrics.Histogram
	merged.Merge(&a)
	merged.Merge(&b)

	ms, us := merged.Snapshot(), union.Snapshot()
	if ms.Count != us.Count || ms.Sum != us.Sum {
		t.Fatalf("merged (count=%d sum=%d) != union (count=%d sum=%d)",
			ms.Count, ms.Sum, us.Count, us.Sum)
	}
	if ms.Buckets != us.Buckets {
		t.Fatalf("merged bucket state diverges from union:\nmerged: %v\nunion:  %v",
			ms.Buckets, us.Buckets)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		if mq, uq := ms.Quantile(q), us.Quantile(q); mq != uq {
			t.Fatalf("q%.3f: merged %v != union %v", q, mq, uq)
		}
	}
}

func TestSketchThresholdBreaches(t *testing.T) {
	var s metrics.Histogram
	s.SetThreshold(int64(time.Millisecond))
	for i := 0; i < 90; i++ {
		s.Observe(int64(100 * time.Microsecond))
	}
	for i := 0; i < 10; i++ {
		s.Observe(int64(5 * time.Millisecond))
	}
	if got := s.Breaches(); got != 10 {
		t.Fatalf("breaches = %d, want 10", got)
	}
	// Merge carries breach counts.
	var m metrics.Histogram
	m.Merge(&s)
	if m.Breaches() != 10 {
		t.Fatalf("merged breaches = %d, want 10", m.Breaches())
	}
}

func TestBucketBoundsMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < metrics.HistogramBuckets; i++ {
		if le := metrics.BucketLe(i); le <= prev {
			t.Fatalf("bucket %d: le %d not above previous %d", i, le, prev)
		} else {
			prev = le
		}
	}
	// Every positive int64 lands in the first bucket whose le covers it.
	for _, v := range []int64{1, 2, 3, 1023, 1 << 40, 1<<62 + 1} {
		var h metrics.Histogram
		h.Observe(v)
		snap := h.Snapshot()
		b := 0
		for snap.Buckets[b] == 0 {
			b++
		}
		if v > metrics.BucketLe(b) || v <= metrics.BucketLe(b-1) {
			t.Fatalf("value %d landed in bucket %d (%d, %d]", v, b, metrics.BucketLe(b-1), metrics.BucketLe(b))
		}
	}
}
