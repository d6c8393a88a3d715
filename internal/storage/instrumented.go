package storage

import (
	"time"

	"fishstore/internal/trace"
)

// IOObserver receives per-operation device I/O measurements. Implementations
// must be safe for concurrent use and cheap: the hybrid log issues flushes
// from epoch actions and reads from scan workers concurrently.
type IOObserver interface {
	ObserveRead(bytes int, d time.Duration)
	ObserveWrite(bytes int, d time.Duration)
}

// Instrumented wraps a Device and times each read and write once, reporting
// the byte count and wall-clock latency to an IOObserver. With a tracer it
// also emits one storage.read or storage.write root span per operation,
// subject to the tracer's enable gate and sampling (a 1-in-N sampler keeps
// 1-in-N I/Os). Unwrap exposes the inner device so type assertions against
// the concrete device (e.g. Profiler, SimSSD) and Sync keep working.
type Instrumented struct {
	inner Device
	obs   IOObserver
	tr    *trace.Tracer
}

// NewInstrumented wraps inner. A nil inner becomes the null device; a nil
// observer or tracer is skipped.
func NewInstrumented(inner Device, obs IOObserver, tr *trace.Tracer) *Instrumented {
	if inner == nil {
		inner = NewNull()
	}
	return &Instrumented{inner: inner, obs: obs, tr: tr}
}

// Unwrap returns the wrapped device.
func (d *Instrumented) Unwrap() Device { return d.inner }

func (d *Instrumented) ReadAt(p []byte, off int64) (int, error) {
	sp := d.tr.StartRoot("storage.read")
	start := time.Now()
	n, err := d.inner.ReadAt(p, off)
	if d.obs != nil {
		d.obs.ObserveRead(n, time.Since(start))
	}
	endIO(sp, off, n, err)
	return n, err
}

func (d *Instrumented) WriteAt(p []byte, off int64) (int, error) {
	sp := d.tr.StartRoot("storage.write")
	start := time.Now()
	n, err := d.inner.WriteAt(p, off)
	if d.obs != nil {
		d.obs.ObserveWrite(n, time.Since(start))
	}
	endIO(sp, off, n, err)
	return n, err
}

// endIO finishes an I/O span (nil when tracing is off or unsampled).
func endIO(sp *trace.Span, off int64, n int, err error) {
	if sp == nil {
		return
	}
	sp.SetInt("offset", off)
	sp.SetInt("bytes", int64(n))
	sp.SetBool("error", err != nil)
	sp.End()
}

func (d *Instrumented) Close() error { return d.inner.Close() }

// Unwrap peels instrumentation (or any other wrapper exposing Unwrap) off a
// device until the concrete device is reached. Use it before type-asserting
// for optional interfaces like Profiler.
func Unwrap(d Device) Device {
	for {
		u, ok := d.(interface{ Unwrap() Device })
		if !ok {
			return d
		}
		d = u.Unwrap()
	}
}
