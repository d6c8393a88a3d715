package fishstore

import (
	"context"
	"runtime/pprof"
	"sync/atomic"

	"fishstore/internal/trace"
)

// This file is the store-side glue for the span layer (internal/trace): the
// process-wide default tracer and the prebuilt pprof label sets the hot
// paths switch between. Storage I/O spans come from the device wrapper
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

// defaultProfileLabels mirrors defaultTracer for Options.ProfileLabels, so
// profiling tools (fishbench -cpuprofile) can label every store opened by
// experiment code that doesn't plumb the option through.
var defaultProfileLabels atomic.Bool

// SetDefaultProfileLabels makes every subsequently opened Store apply
// runtime/pprof goroutine labels as if Options.ProfileLabels were set.
func SetDefaultProfileLabels(on bool) { defaultProfileLabels.Store(on) }

// resolveTracer resolves Options.Tracer (explicit, process default, or nil)
// plus the ProfileLabels process default. It mutates o in place.
func resolveTracer(o *Options) *trace.Tracer {
	if !o.ProfileLabels {
		o.ProfileLabels = defaultProfileLabels.Load()
	}
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

// profileLabels holds prebuilt pprof label sets: switching the goroutine's
// labels on the hot path is then a pointer swap inside the runtime rather
// than a per-record label-set construction.
type profileLabels struct {
	ingest context.Context
	// phase contexts in phaseNames order (parse, psf_eval, memcpy, index,
	// others), each carrying operation=ingest too.
	ingestPhase [5]context.Context
	flush       context.Context
	checkpoint  context.Context
	recover     context.Context
}

func newProfileLabels() *profileLabels {
	base := context.Background()
	pl := &profileLabels{
		ingest:     pprof.WithLabels(base, pprof.Labels("operation", "ingest")),
		flush:      pprof.WithLabels(base, pprof.Labels("operation", "flush")),
		checkpoint: pprof.WithLabels(base, pprof.Labels("operation", "checkpoint")),
		recover:    pprof.WithLabels(base, pprof.Labels("operation", "recover")),
	}
	for i, name := range phaseNames {
		pl.ingestPhase[i] = pprof.WithLabels(base,
			pprof.Labels("operation", "ingest", "phase", name))
	}
	return pl
}

// setLabels applies ctx's pprof labels to the current goroutine; restoreLabels
// clears them. Both are nil-safe on the receiver so call sites stay branchless.
func (pl *profileLabels) set(ctx context.Context) {
	if pl != nil {
		pprof.SetGoroutineLabels(ctx)
	}
}

func (pl *profileLabels) clear() {
	if pl != nil {
		pprof.SetGoroutineLabels(context.Background())
	}
}
