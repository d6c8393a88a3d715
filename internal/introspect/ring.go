// Package introspect holds FishStore's deep-introspection primitives: the
// fixed-size ring every bounded history is kept in — the crash flight
// recorder, the adaptive-scan decision log and the tracer's finished spans —
// and the JSON snapshot types served by the /debug/fishstore/* endpoints:
// index occupancy, per-PSF chain-length histograms, log composition, and
// cost-model telemetry.
package introspect

import "sync"

// Ring is a fixed-capacity, drop-oldest ring of values. Put copies v into a
// preallocated slot under a short mutex, so recording never allocates;
// Snapshot copies the retained values out, oldest first.
type Ring[T any] struct {
	mu    sync.Mutex
	slots []T
	total uint64 // values Put since creation or the last Reset
}

// NewRing creates a ring holding up to capacity values (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{slots: make([]T, max(capacity, 1))}
}

// Put appends v, overwriting the oldest retained value when full.
func (r *Ring[T]) Put(v T) {
	r.mu.Lock()
	r.slots[r.total%uint64(len(r.slots))] = v
	r.total++
	r.mu.Unlock()
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Total returns how many values were ever Put (since the last Reset).
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many values have been overwritten.
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - min(r.total, uint64(len(r.slots)))
}

// Snapshot returns the retained values, oldest first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(r.total, uint64(len(r.slots)))
	out := make([]T, n)
	for i := range out {
		out[i] = r.slots[(r.total-n+uint64(i))%uint64(len(r.slots))]
	}
	return out
}

// Reset discards every retained value and zeroes Total.
func (r *Ring[T]) Reset() {
	r.mu.Lock()
	clear(r.slots)
	r.total = 0
	r.mu.Unlock()
}
