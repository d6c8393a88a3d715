package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// These tests pin the quantile, merge and threshold behaviour that the
// workload view, the SLO watchdog and the registry's merged export rely on.

func TestHistogramQuantiles(t *testing.T) {
	var s Histogram
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

func TestHistogramZeroAndNegative(t *testing.T) {
	var s Histogram
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

// TestHistogramMergeAgreement pins the mergeability contract: two histograms
// recorded over a split workload, merged, agree exactly — same bucket
// state, same quantiles — with one histogram recorded over the union.
func TestHistogramMergeAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var a, b, union Histogram
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 2e6) // long-tailed latencies around 2ms
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		union.Observe(v)
	}
	var merged Histogram
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

func TestHistogramThresholdBreaches(t *testing.T) {
	var s Histogram
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
	var m Histogram
	m.Merge(&s)
	if m.Breaches() != 10 {
		t.Fatalf("merged breaches = %d, want 10", m.Breaches())
	}
}

func TestBucketBoundsMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < HistogramBuckets; i++ {
		if le := BucketLe(i); le <= prev {
			t.Fatalf("bucket %d: le %d not above previous %d", i, le, prev)
		} else {
			prev = le
		}
	}
}

// TestHistogramConcurrentRecordMergeSnapshot hammers one histogram with
// concurrent recorders, a merger folding a second live histogram in, and
// snapshot readers. Run under -race this is the memory-safety proof; the
// final count check is the no-lost-update proof.
func TestHistogramConcurrentRecordMergeSnapshot(t *testing.T) {
	var dst, src Histogram
	dst.SetThreshold(int64(time.Millisecond))
	const (
		writers       = 4
		perWriter     = 5000
		srcSamples    = 2000
		mergesOfFixed = 3
	)
	// Pre-fill the source histogram, then merge it a fixed number of times
	// while dst is being recorded into.
	for i := 0; i < srcSamples; i++ {
		src.Observe(int64(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				dst.Observe(seed*1000 + int64(i))
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mergesOfFixed; i++ {
			dst.Merge(&src)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			snap := dst.Snapshot()
			_ = snap.Quantile(0.99)
			_ = snap.Mean()
		}
	}()
	wg.Wait()

	want := int64(writers*perWriter + mergesOfFixed*srcSamples)
	if got := dst.Count(); got != want {
		t.Fatalf("count = %d, want %d (lost updates)", got, want)
	}
	var bucketSum int64
	snap := dst.Snapshot()
	for _, c := range snap.Buckets {
		bucketSum += c
	}
	if bucketSum != want {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, want)
	}
}
