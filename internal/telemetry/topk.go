package telemetry

import (
	"sort"
	"sync"
)

// TopK is a space-saving (Metwally et al.) heavy-hitter sketch over string
// keys, tracking two weights per key: a record count and a byte volume.
// Capacity is fixed at construction; when a new key arrives at a full
// sketch, the key with the smallest record count is evicted and the
// newcomer inherits its counts as an overestimation bound (reported per
// item as ErrRecords). Any key whose true count exceeds total/capacity is
// guaranteed to be present.
//
// All methods are safe on a nil receiver and for concurrent use.
type TopK struct {
	mu    sync.Mutex
	cap   int
	items map[string]*hhCounter
}

type hhCounter struct {
	records    int64
	bytes      int64
	errRecords int64
}

// HeavyHitter is one reported key with its (over)estimated weights.
type HeavyHitter struct {
	Key     string `json:"key"`
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
	// ErrRecords bounds the overestimation of Records: the true count is in
	// [Records-ErrRecords, Records].
	ErrRecords int64 `json:"err_records,omitempty"`
}

// NewTopK builds a sketch tracking at most capacity keys (default 32).
func NewTopK(capacity int) *TopK {
	if capacity <= 0 {
		capacity = 32
	}
	return &TopK{cap: capacity, items: make(map[string]*hhCounter, capacity)}
}

// Observe adds weight to key.
func (t *TopK) Observe(key string, records, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if it := t.items[key]; it != nil {
		it.records += records
		it.bytes += bytes
		return
	}
	if len(t.items) < t.cap {
		t.items[key] = &hhCounter{records: records, bytes: bytes}
		return
	}
	// Space-saving eviction: the newcomer replaces the minimum-count key
	// and inherits its counts as its error bound.
	var minKey string
	var min *hhCounter
	for k, it := range t.items {
		if min == nil || it.records < min.records {
			minKey, min = k, it
		}
	}
	delete(t.items, minKey)
	t.items[key] = &hhCounter{
		records:    min.records + records,
		bytes:      min.bytes + bytes,
		errRecords: min.records,
	}
}

// Len returns the number of tracked keys.
func (t *TopK) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}

// Top returns the n heaviest keys by record count, descending (ties broken
// by key for stable output). n <= 0 returns every tracked key.
func (t *TopK) Top(n int) []HeavyHitter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]HeavyHitter, 0, len(t.items))
	for k, it := range t.items {
		out = append(out, HeavyHitter{Key: k, Records: it.records, Bytes: it.bytes, ErrRecords: it.errRecords})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Records != out[j].Records {
			return out[i].Records > out[j].Records
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
