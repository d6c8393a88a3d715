package telemetry

import (
	"sync"
	"testing"
	"time"

	"fishstore/internal/metrics"
)

// TestSketchConcurrentRecordMergeSnapshot hammers one histogram with
// concurrent recorders, a merger folding a second live histogram in, and
// snapshot readers — the shape a scatter-gather aggregator produces. Run
// under -race this is the memory-safety proof; the final count check is the
// no-lost-update proof.
func TestSketchConcurrentRecordMergeSnapshot(t *testing.T) {
	var dst, src metrics.Histogram
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

// TestTopKConcurrent races observers, mergers, and readers over one sketch.
func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK(16)
	other := NewTopK(16)
	other.Observe("merged-key", 100, 1000)
	keys := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 0, 16)
			for i := 0; i < 2000; i++ {
				k := keys[(i+w)%len(keys)]
				if i%2 == 0 {
					tk.Observe(k, 1, 10)
				} else {
					buf = append(buf[:0], k...)
					tk.ObserveKey(buf, 1, 10)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tk.Merge(other)
			other.Merge(tk) // cross-merge: must not deadlock
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = tk.Top(5)
			_ = tk.Len()
		}
	}()
	wg.Wait()
	// Every named key was observed 4×2000/5 times with no evictions of the
	// five hot keys possible at capacity 16 unless merge noise displaced
	// them — they are the heaviest, so they must all be present.
	top := tk.Top(0)
	found := 0
	for _, h := range top {
		for _, k := range keys {
			if h.Key == k {
				found++
			}
		}
	}
	if found != len(keys) {
		t.Fatalf("hot keys lost under concurrency: %+v", top)
	}
}

// TestCollectorConcurrent exercises the full collector surface (op histograms,
// every heavy-hitter dimension, sampling, snapshot, merge) concurrently.
func TestCollectorConcurrent(t *testing.T) {
	c := New(Config{TopK: 8, SampleEvery: 4})
	shard := New(Config{TopK: 8, SampleEvery: 4})
	shard.RecordOp(OpCheckpoint, time.Second)
	shard.ObservePSF("shard-psf", 10, 100)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := make([]byte, 0, 32)
			for i := 0; i < 3000; i++ {
				c.RecordOp(OpIngestBatch, time.Duration(i)*time.Microsecond)
				c.ObservePSF("psf-a", 1, 64)
				if c.SampleProperty() {
					key = append(key[:0], "psf-a=v"...)
					c.ObservePropertyKey(key, 1, 64)
				}
				c.ObserveTenant("tenant-1", 1, 64)
				c.ObserveQueried("psf-a=v", 1, 64)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.Merge(shard)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = c.Snapshot(5)
		}
	}()
	wg.Wait()

	snap := c.Snapshot(10)
	if snap.Ops[OpIngestBatch].Count != 4*3000 {
		t.Fatalf("ingest count = %d", snap.Ops[OpIngestBatch].Count)
	}
	if snap.Ops[OpCheckpoint].Count != 20 {
		t.Fatalf("checkpoint count (merged) = %d", snap.Ops[OpCheckpoint].Count)
	}
	if len(snap.TopPSFs) == 0 || snap.TopPSFs[0].Key != "psf-a" {
		t.Fatalf("top PSFs: %+v", snap.TopPSFs)
	}
}

// TestCollectorNilSafe: every entry point must be inert on a nil collector.
func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.RecordOp(OpIngestBatch, time.Second)
	c.ObservePSF("a", 1, 1)
	c.ObserveTenant("t", 1, 1)
	c.ObserveQueried("q", 1, 1)
	c.ObservePropertyKey([]byte("k"), 1, 1)
	c.Merge(New(Config{}))
	if c.SampleProperty() {
		t.Fatal("nil collector must never sample")
	}
	snap := c.Snapshot(5)
	if len(snap.Ops) != 0 {
		t.Fatalf("nil snapshot: %+v", snap)
	}
}
