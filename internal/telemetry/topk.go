package telemetry

import (
	"container/heap"
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
// Observing a tracked key adds to its weights in place; once the sketch is
// full, a min-heap on record counts names the key to evict, so an eviction
// is a heap fix rather than a pass over every key.
//
// All methods are safe on a nil receiver and for concurrent use.
type TopK struct {
	mu    sync.Mutex
	cap   int
	items map[string]*hhCounter
	// counters holds every tracked key. From the first eviction on
	// (heaped) it is a min-heap on records whose root is the next victim;
	// a sketch that never fills never pays for heap order.
	counters counterHeap
	heaped   bool
}

type hhCounter struct {
	key        string
	records    int64
	bytes      int64
	errRecords int64
	idx        int // position in counters
}

// counterHeap is a heap.Interface min-heap of counters on records.
type counterHeap []*hhCounter

func (h counterHeap) Len() int           { return len(h) }
func (h counterHeap) Less(i, j int) bool { return h[i].records < h[j].records }
func (h counterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

// Push and Pop complete heap.Interface; the sketch only fixes in place.
func (h *counterHeap) Push(x any) { *h = append(*h, x.(*hhCounter)) }
func (h *counterHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
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
	return &TopK{cap: capacity, items: make(map[string]*hhCounter, capacity),
		counters: make(counterHeap, 0, capacity)}
}

// Observe adds weight to key.
func (t *TopK) Observe(key string, records, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if it := t.items[key]; it != nil {
		t.add(it, records, bytes)
		return
	}
	t.insert(key, records, bytes)
}

// ObserveBytes is Observe for a key held in bytes: the key is copied into
// a string only when the sketch starts tracking it.
func (t *TopK) ObserveBytes(key []byte, records, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if it := t.items[string(key)]; it != nil {
		t.add(it, records, bytes)
		return
	}
	t.insert(string(key), records, bytes)
}

// add adds weight to a tracked key. t.mu is held.
func (t *TopK) add(it *hhCounter, records, bytes int64) {
	it.records += records
	it.bytes += bytes
	if t.heaped {
		heap.Fix(&t.counters, it.idx)
	}
}

// insert starts tracking key, evicting the minimum-count key of a full
// sketch. t.mu is held.
func (t *TopK) insert(key string, records, bytes int64) {
	if len(t.counters) < t.cap {
		it := &hhCounter{key: key, records: records, bytes: bytes, idx: len(t.counters)}
		t.counters = append(t.counters, it)
		t.items[key] = it
		return
	}
	if !t.heaped {
		heap.Init(&t.counters)
		t.heaped = true
	}
	// Space-saving eviction: the newcomer replaces the minimum-count key
	// and inherits its counts as its error bound.
	min := t.counters[0]
	delete(t.items, min.key)
	min.key = key
	min.errRecords = min.records
	min.records += records
	min.bytes += bytes
	t.items[key] = min
	heap.Fix(&t.counters, 0)
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
	out := make([]HeavyHitter, 0, len(t.counters))
	for _, it := range t.counters {
		out = append(out, HeavyHitter{Key: it.key, Records: it.records, Bytes: it.bytes, ErrRecords: it.errRecords})
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
