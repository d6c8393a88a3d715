package fishstore

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrBusy is returned when an operation is refused by the resource governor
// (Options.Limits): the store is over the configured in-flight budget and the
// operation either declined to wait (MaxWait zero) or waited MaxWait without
// capacity appearing. ErrBusy is retryable by construction — nothing about
// the store is wrong, it is simply full.
var ErrBusy = errors.New("fishstore: over resource limits")

// governor is the store-level admission controller. The admission fast path
// is one atomic add and must stay allocation-free (it runs once per ingest
// batch and once per scan); the slow path — an operation that actually has
// to wait for capacity — may allocate a timer.
//
// Capacity release is broadcast through one-slot signal channels: a release
// performs a non-blocking send, waiters re-try on receive, and a waiter that
// admits itself after consuming a signal forwards it so a coalesced wakeup
// still reaches the remaining waiters. Waiters that miss a forwarded signal
// are bounded by their MaxWait timer, never stranded.
type governor struct {
	lim Limits
	met *storeMetrics

	inflightBytes atomic.Int64
	activeScans   atomic.Int64

	waits   atomic.Int64 // operations that blocked for capacity
	rejects atomic.Int64 // operations refused with ErrBusy

	ingestSig chan struct{}
	scanSig   chan struct{}
}

func newGovernor(lim *Limits, met *storeMetrics) *governor {
	return &governor{
		lim:       *lim,
		met:       met,
		ingestSig: make(chan struct{}, 1),
		scanSig:   make(chan struct{}, 1),
	}
}

// admitIngest charges n raw batch bytes against the in-flight budget,
// blocking up to MaxWait for capacity. An oversized batch (bigger than the
// whole budget) is admitted only when the budget is idle, so it cannot
// starve forever.
//
//fishlint:hotpath per-batch admission (fast path must not allocate)
func (g *governor) admitIngest(ctx context.Context, n int64) error {
	if g.lim.MaxInFlightIngestBytes == 0 || n == 0 {
		return nil
	}
	if g.tryIngest(n) {
		return nil
	}
	return g.waitSlow(ctx, g.ingestSig, func() bool { return g.tryIngest(n) })
}

func (g *governor) tryIngest(n int64) bool {
	now := g.inflightBytes.Add(n)
	if now > g.lim.MaxInFlightIngestBytes && now != n {
		g.inflightBytes.Add(-n)
		return false
	}
	return true
}

// releaseIngest returns a batch's bytes to the budget and wakes a waiter.
//
//fishlint:hotpath per-batch admission release
func (g *governor) releaseIngest(n int64) {
	if g.lim.MaxInFlightIngestBytes == 0 || n == 0 {
		return
	}
	g.inflightBytes.Add(-n)
	signal(g.ingestSig)
}

// admitScan admits one scan (Lookup counts as a scan).
//
//fishlint:hotpath per-scan admission (fast path must not allocate)
func (g *governor) admitScan(ctx context.Context) error {
	if g.lim.MaxConcurrentScans == 0 {
		return nil
	}
	if g.tryScan() {
		return nil
	}
	return g.waitSlow(ctx, g.scanSig, g.tryScan)
}

func (g *governor) tryScan() bool {
	if g.activeScans.Add(1) > g.lim.MaxConcurrentScans {
		g.activeScans.Add(-1)
		return false
	}
	return true
}

// releaseScan returns a scan slot and wakes a waiter.
//
//fishlint:hotpath per-scan admission release
func (g *governor) releaseScan() {
	if g.lim.MaxConcurrentScans == 0 {
		return
	}
	g.activeScans.Add(-1)
	signal(g.scanSig)
}

// waitSlow is the blocking admission path: retry on every capacity-release
// signal until admitted, MaxWait elapses (ErrBusy), or ctx is cancelled.
func (g *governor) waitSlow(ctx context.Context, sig chan struct{}, try func() bool) error {
	if g.lim.MaxWait <= 0 {
		g.rejects.Add(1)
		g.met.admissionRejects.Inc()
		return ErrBusy
	}
	g.waits.Add(1)
	g.met.admissionWaits.Inc()
	timer := time.NewTimer(g.lim.MaxWait)
	defer timer.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		select {
		case <-sig:
			if try() {
				// A release's wakeup may stand for several releases; pass it
				// on so other waiters re-try too.
				signal(sig)
				return nil
			}
		case <-timer.C:
			if try() {
				return nil
			}
			g.rejects.Add(1)
			g.met.admissionRejects.Inc()
			return ErrBusy
		case <-done:
			return ctx.Err()
		}
	}
}

// signal performs the non-blocking capacity-release broadcast.
func signal(sig chan struct{}) {
	select {
	case sig <- struct{}{}:
	default:
	}
}
