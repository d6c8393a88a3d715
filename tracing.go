package fishstore

import (
	"sync/atomic"

	"fishstore/internal/trace"
)

// This file is the store-side glue for the span layer (internal/trace): the
// process-wide default tracer. Storage I/O spans come from the device wrapper
// newStore installs. Finished root spans join the store's event stream (see
// wireObservability).

// defaultTracer is consulted by Open/Recover when Options.Tracer is nil,
// mirroring SetDefaultMetricsRegistry: process-wide tooling (fishbench
// -span-out) can trace every store opened by experiment code that doesn't
// plumb a tracer through its own options.
var defaultTracer atomic.Pointer[trace.Tracer]

// SetDefaultTracer installs a tracer used by every subsequently opened Store
// whose Options.Tracer is nil. Pass nil to restore the default (no tracing).
func SetDefaultTracer(t *trace.Tracer) {
	if t == nil {
		defaultTracer.Store(nil)
		return
	}
	defaultTracer.Store(t)
}

// resolveTracer resolves Options.Tracer (explicit, process default, or nil).
// It mutates o in place.
func resolveTracer(o *Options) *trace.Tracer {
	tr := o.Tracer
	if tr == nil {
		tr = defaultTracer.Load()
	}
	if tr == nil {
		return nil
	}
	o.Tracer = tr
	return tr
}
