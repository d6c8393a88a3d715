package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestTopKConcurrent races observers and readers over one sketch.
func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK(16)
	keys := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tk.Observe(keys[(i+w)%len(keys)], 1, 10)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = tk.Top(5)
			_ = tk.Len()
		}
	}()
	wg.Wait()
	// Every named key was observed 4×2000/5 times; five keys at capacity 16
	// are never evicted, so they must all be present.
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
// every heavy-hitter dimension, snapshot) concurrently.
func TestCollectorConcurrent(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				c.RecordOp(OpIngestBatch, time.Duration(i)*time.Microsecond)
				c.ObservePSF("psf-a", 1, 64)
				c.ObserveQueried("psf-a", []byte("v"), 1, 64)
			}
		}()
	}
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
	if len(snap.TopPSFs) == 0 || snap.TopPSFs[0].Key != "psf-a" {
		t.Fatalf("top PSFs: %+v", snap.TopPSFs)
	}
	if len(snap.TopQueried) == 0 || snap.TopQueried[0].Records != 4*3000 {
		t.Fatalf("top queried: %+v", snap.TopQueried)
	}
}

// TestCollectorNilSafe: every entry point must be inert on a nil collector.
func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.RecordOp(OpIngestBatch, time.Second)
	c.ObservePSF("a", 1, 1)
	c.ObserveQueried("q", nil, 1, 1)
	snap := c.Snapshot(5)
	if len(snap.Ops) != 0 {
		t.Fatalf("nil snapshot: %+v", snap)
	}
}
