package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Fault-injection errors. ErrPowerCut is sticky: once the simulated machine
// loses power, every subsequent write and sync fails with it (reads keep
// working — they model inspecting the surviving medium after reboot).
var (
	// ErrPowerCut is returned by writes and syncs after a simulated power cut.
	ErrPowerCut = errors.New("storage: simulated power cut")
	// ErrTornWrite is returned when an injected fault persisted only a prefix
	// of the write. Unlike the power-cut tear, the caller observes the error.
	ErrTornWrite = errors.New("storage: simulated torn write")
	// ErrShortRead is returned when an injected fault returned fewer bytes
	// than requested (io.ReaderAt requires a non-nil error on short reads).
	ErrShortRead = errors.New("storage: simulated short read")
	// ErrSyncFailed is returned when an injected fault failed a Sync.
	ErrSyncFailed = errors.New("storage: simulated sync failure")
)

// FaultConfig configures a FaultDevice. All probabilities are evaluated on a
// seeded PRNG, so a fixed Seed plus a deterministic operation order replays
// the same fault schedule.
type FaultConfig struct {
	// Seed seeds the fault schedule. Zero is a valid (fixed) seed.
	Seed int64
	// TornWriteProb is the probability that a write persists only an aligned
	// prefix and reports ErrTornWrite (a failed DMA the caller observes).
	TornWriteProb float64
	// ShortReadProb is the probability that a read returns an aligned prefix
	// with ErrShortRead (a transient read fault the caller observes).
	ShortReadProb float64
	// FailSyncProb is the probability that Sync fails with ErrSyncFailed
	// without syncing the inner device.
	FailSyncProb float64
	// SyncDelay stalls every successful Sync, modeling a device with a slow
	// flush path.
	SyncDelay time.Duration
	// ReadDelay stalls every read (including injected short reads), modeling
	// real random-access latency — unlike SimSSD's virtual clock, the caller
	// actually waits. Scan-path tests use it to exercise the observed-latency
	// clamp against a device whose reads genuinely cost what its profile says.
	ReadDelay time.Duration
	// PowerCutAtWrite, when > 0, cuts power on the Nth write (1-based) from
	// construction: that write persists only a random aligned prefix
	// (silently — the write cache is lost) and every later write fails with
	// ErrPowerCut. Use ArmPowerCut to start the countdown later.
	PowerCutAtWrite int64
	// TearAlign aligns tear and short-read boundaries (default 512, a
	// sector; always rounded up to at least 8 so log words stay atomic).
	TearAlign int
	// OnPowerCut, if set, is called exactly once when the power cut fires
	// (from the cut write or CutNow), outside the device's mutex. The crash
	// harness uses it to timestamp the cut in the flight recorder.
	OnPowerCut func()
	// CapacityBytes, when > 0, caps the device: a write that would raise the
	// space used (see SpaceUsed) past the cap fails whole with ErrNoSpace,
	// like a sparse file on a full partition. Reclaiming space with
	// TruncateBefore lets later writes succeed again — ENOSPC here is a
	// managed condition, not a crash.
	CapacityBytes int64
	// WriteDelay stalls every write, the write-side analogue of ReadDelay.
	// Combined with SetReadDelay/SetWriteDelay this models a device that
	// turns sustainedly slow mid-run (thermal throttling, a sick disk).
	WriteDelay time.Duration
}

// FaultStats counts operations and injected faults.
type FaultStats struct {
	Writes, Reads, Syncs                int64
	TornWrites, ShortReads, FailedSyncs int64
	// NoSpaceWrites counts writes refused with ErrNoSpace (armed or
	// capacity-capped).
	NoSpaceWrites int64
	// CutAtWrite is the ordinal of the write that carried the power cut
	// (0 = power never cut).
	CutAtWrite int64
}

// FaultDevice wraps a Device and injects storage faults: torn (prefix-only)
// writes, short reads, failed or delayed syncs, and a deterministic power
// cut at a chosen write. After a power cut the surviving image is exactly
// what reached the inner device; recover against Unwrap().
type FaultDevice struct {
	inner Device
	cfg   FaultConfig

	mu            sync.Mutex
	rng           *rand.Rand
	cutCounter    int64 // writes remaining before the cut; <=0 means disarmed
	enospcCounter int64 // writes remaining before sticky ENOSPC; <=0 disarmed
	enospcStuck   bool  // armed ENOSPC fired; cleared by ClearENOSPC/TruncateBefore
	nextReadErr   error
	held          extents // byte ranges written and not since reclaimed

	cut        atomic.Bool
	writes     atomic.Int64
	reads      atomic.Int64
	syncs      atomic.Int64
	torn       atomic.Int64
	short      atomic.Int64
	fsyncs     atomic.Int64
	noSpace    atomic.Int64
	cutAt      atomic.Int64
	readDelay  atomic.Int64 // runtime override, nanoseconds; <0 = use cfg
	writeDelay atomic.Int64 // runtime override, nanoseconds; <0 = use cfg
}

// NewFaultDevice wraps inner (a Mem device if nil) with the fault schedule.
func NewFaultDevice(inner Device, cfg FaultConfig) *FaultDevice {
	if inner == nil {
		inner = NewMem()
	}
	if cfg.TearAlign <= 0 {
		cfg.TearAlign = 512
	}
	if cfg.TearAlign &= ^7; cfg.TearAlign < 8 {
		cfg.TearAlign = 8 // word-align so no log word is half-written
	}
	d := &FaultDevice{
		inner:      inner,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		cutCounter: cfg.PowerCutAtWrite,
	}
	d.readDelay.Store(-1)
	d.writeDelay.Store(-1)
	return d
}

// Unwrap returns the inner device (the surviving image after a power cut).
func (d *FaultDevice) Unwrap() Device { return d.inner }

// ArmPowerCut schedules a power cut on the nth write from now (n >= 1).
func (d *FaultDevice) ArmPowerCut(n int64) {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	d.cutCounter = n
	d.mu.Unlock()
}

// CutNow cuts power immediately: all subsequent writes and syncs fail.
func (d *FaultDevice) CutNow() {
	if d.cut.CompareAndSwap(false, true) {
		if d.cutAt.Load() == 0 {
			d.cutAt.Store(d.writes.Load())
		}
		if d.cfg.OnPowerCut != nil {
			d.cfg.OnPowerCut()
		}
	}
}

// IsCut reports whether the simulated power has been cut.
func (d *FaultDevice) IsCut() bool { return d.cut.Load() }

// FailNextRead makes the next ReadAt fail with err (once). A nil err clears
// the injection.
func (d *FaultDevice) FailNextRead(err error) {
	d.mu.Lock()
	d.nextReadErr = err
	d.mu.Unlock()
}

// ArmENOSPC makes the nth write from now (n >= 1) and every one after it
// fail with ErrNoSpace until ClearENOSPC or TruncateBefore, modeling a
// partition filling up regardless of the configured capacity.
func (d *FaultDevice) ArmENOSPC(n int64) {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	d.enospcCounter = n
	d.enospcStuck = false
	d.mu.Unlock()
}

// ClearENOSPC disarms a pending or fired ArmENOSPC injection.
func (d *FaultDevice) ClearENOSPC() {
	d.mu.Lock()
	d.enospcCounter = 0
	d.enospcStuck = false
	d.mu.Unlock()
}

// SetReadDelay overrides the configured per-read delay at runtime (a
// negative d restores the configured value). Use it to make a healthy device
// turn sustainedly slow mid-run, and fast again.
func (d *FaultDevice) SetReadDelay(delay time.Duration) { d.readDelay.Store(int64(delay)) }

// SetWriteDelay overrides the configured per-write delay at runtime; see
// SetReadDelay.
func (d *FaultDevice) SetWriteDelay(delay time.Duration) { d.writeDelay.Store(int64(delay)) }

func (d *FaultDevice) effReadDelay() time.Duration {
	if o := d.readDelay.Load(); o >= 0 {
		return time.Duration(o)
	}
	return d.cfg.ReadDelay
}

func (d *FaultDevice) effWriteDelay() time.Duration {
	if o := d.writeDelay.Load(); o >= 0 {
		return time.Duration(o)
	}
	return d.cfg.WriteDelay
}

// TruncateBefore releases the device space below off, like punching a hole
// in a sparse file: every written byte below off stops counting against the
// capacity (bytes written there later count again), a stuck ArmENOSPC
// clears (space exists again), and the reclaim is forwarded down the
// wrapper chain so the inner device can actually free memory.
func (d *FaultDevice) TruncateBefore(off int64) error {
	d.mu.Lock()
	d.held.removeBelow(off)
	d.enospcStuck = false
	d.mu.Unlock()
	return TruncateBefore(d.inner, off)
}

// SpaceUsed reports the capacity accounting of a sparse file: the number of
// distinct bytes written and not since reclaimed by TruncateBefore. Holes
// cost nothing, and rewriting a held byte costs nothing more.
func (d *FaultDevice) SpaceUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.held.size()
}

// extents is a sorted list of disjoint, non-adjacent byte ranges [lo, hi).
// A log device writes mostly contiguous pages, so the list stays short.
type extents []extent

type extent struct{ lo, hi int64 }

func (e extents) size() int64 {
	var n int64
	for _, x := range e {
		n += x.hi - x.lo
	}
	return n
}

// uncovered returns how many bytes of [lo, hi) no extent holds yet.
func (e extents) uncovered(lo, hi int64) int64 {
	n := hi - lo
	for _, x := range e {
		if x.lo < hi && lo < x.hi {
			n -= min(hi, x.hi) - max(lo, x.lo)
		}
	}
	return n
}

// add merges [lo, hi) into the list.
func (e *extents) add(lo, hi int64) {
	if lo >= hi {
		return
	}
	i := 0
	for i < len(*e) && (*e)[i].hi < lo {
		i++
	}
	j := i
	for ; j < len(*e) && (*e)[j].lo <= hi; j++ { // overlapping or adjacent
		lo, hi = min(lo, (*e)[j].lo), max(hi, (*e)[j].hi)
	}
	*e = slices.Replace(*e, i, j, extent{lo, hi})
}

// removeBelow drops every byte below off.
func (e *extents) removeBelow(off int64) {
	out := (*e)[:0]
	for _, x := range *e {
		if x.hi <= off {
			continue
		}
		x.lo = max(x.lo, off)
		out = append(out, x)
	}
	*e = out
}

// Stats returns a snapshot of operation and fault counters.
func (d *FaultDevice) Stats() FaultStats {
	return FaultStats{
		Writes:        d.writes.Load(),
		Reads:         d.reads.Load(),
		Syncs:         d.syncs.Load(),
		TornWrites:    d.torn.Load(),
		ShortReads:    d.short.Load(),
		FailedSyncs:   d.fsyncs.Load(),
		NoSpaceWrites: d.noSpace.Load(),
		CutAtWrite:    d.cutAt.Load(),
	}
}

// FlipRandomBits corrupts the persisted image: it flips n bits at seeded
// random positions within byte offsets [lo, hi) of the inner device,
// modeling silent media decay (the corruption FishStore's per-record
// checksums exist to catch). The flips go straight to the inner device —
// they are invisible to the fault counters and unaffected by a power cut,
// like real bit rot. Returns the flipped positions as bit offsets
// (byteOffset*8 + bit) so tests can assert on exactly what was damaged.
func (d *FaultDevice) FlipRandomBits(n int, lo, hi int64) ([]int64, error) {
	if hi <= lo || n <= 0 {
		return nil, nil
	}
	// Only the seeded RNG needs the fault-state mutex; the flips themselves
	// run unlocked so that n round-trips of per-bit I/O do not stall every
	// concurrent reader and writer queued on d.mu. Bit rot is asynchronous
	// with in-flight I/O on real media too — interleaving is the model, not
	// a hazard.
	type flip struct {
		off int64
		bit int
	}
	d.mu.Lock()
	flips := make([]flip, n)
	for i := range flips {
		flips[i] = flip{off: lo + d.rng.Int63n(hi-lo), bit: d.rng.Intn(8)}
	}
	d.mu.Unlock()

	flipped := make([]int64, 0, n)
	var b [1]byte
	for _, f := range flips {
		if _, err := d.inner.ReadAt(b[:], f.off); err != nil {
			return flipped, fmt.Errorf("storage: bit flip read at %d: %w", f.off, err)
		}
		b[0] ^= 1 << f.bit
		if _, err := d.inner.WriteAt(b[:], f.off); err != nil {
			return flipped, fmt.Errorf("storage: bit flip write at %d: %w", f.off, err)
		}
		flipped = append(flipped, f.off*8+int64(f.bit))
	}
	return flipped, nil
}

// tearPoint picks an aligned prefix length in [0, n).
func (d *FaultDevice) tearPoint(n int) int {
	if n <= d.cfg.TearAlign {
		return 0
	}
	chunks := n / d.cfg.TearAlign
	return d.cfg.TearAlign * d.rng.Intn(chunks)
}

func (d *FaultDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.cut.Load() {
		return 0, ErrPowerCut
	}
	if wd := d.effWriteDelay(); wd > 0 {
		time.Sleep(wd)
	}
	d.mu.Lock()
	if d.cut.Load() { // raced with the cut write
		d.mu.Unlock()
		return 0, ErrPowerCut
	}
	ord := d.writes.Add(1)
	// ENOSPC-class failures: an armed write ordinal (sticky until cleared or
	// space is reclaimed) or the capacity cap. The write fails whole — the
	// filesystem refused it, nothing reached the medium.
	if d.enospcCounter > 0 {
		d.enospcCounter--
		if d.enospcCounter == 0 {
			d.enospcStuck = true
		}
	}
	end := off + int64(len(p))
	outOfSpace := d.enospcStuck
	if !outOfSpace && d.cfg.CapacityBytes > 0 {
		outOfSpace = d.held.size()+d.held.uncovered(off, end) > d.cfg.CapacityBytes
	}
	if outOfSpace {
		d.noSpace.Add(1)
		d.mu.Unlock()
		return 0, ErrNoSpace
	}
	d.held.add(off, end)
	if d.cutCounter > 0 {
		d.cutCounter--
		if d.cutCounter == 0 {
			// This write carries the power cut: a random aligned prefix
			// reaches the medium, the rest is lost with the write cache.
			keep := d.tearPoint(len(p))
			fired := d.cut.CompareAndSwap(false, true)
			d.cutAt.Store(ord)
			if keep > 0 {
				d.torn.Add(1)
			}
			d.mu.Unlock()
			if keep > 0 {
				d.inner.WriteAt(p[:keep], off)
			}
			if fired && d.cfg.OnPowerCut != nil {
				d.cfg.OnPowerCut()
			}
			return 0, ErrPowerCut
		}
	}
	torn := d.cfg.TornWriteProb > 0 && d.rng.Float64() < d.cfg.TornWriteProb
	var keep int
	if torn {
		keep = d.tearPoint(len(p))
		d.torn.Add(1)
	}
	d.mu.Unlock()

	if torn {
		var n int
		var err error
		if keep > 0 {
			n, err = d.inner.WriteAt(p[:keep], off)
		}
		if err == nil {
			err = ErrTornWrite
		}
		return n, err
	}
	return d.inner.WriteAt(p, off)
}

func (d *FaultDevice) ReadAt(p []byte, off int64) (int, error) {
	d.reads.Add(1)
	if rd := d.effReadDelay(); rd > 0 {
		time.Sleep(rd)
	}
	d.mu.Lock()
	if err := d.nextReadErr; err != nil {
		d.nextReadErr = nil
		d.mu.Unlock()
		return 0, err
	}
	short := d.cfg.ShortReadProb > 0 && d.rng.Float64() < d.cfg.ShortReadProb
	var keep int
	if short {
		keep = d.tearPoint(len(p))
		d.short.Add(1)
	}
	d.mu.Unlock()

	if short {
		var n int
		var err error
		if keep > 0 {
			n, err = d.inner.ReadAt(p[:keep], off)
		}
		if err == nil {
			err = fmt.Errorf("%w: %d of %d bytes at %d", ErrShortRead, n, len(p), off)
		}
		return n, err
	}
	return d.inner.ReadAt(p, off)
}

// Sync flushes the inner device, subject to injected failures and delay.
func (d *FaultDevice) Sync() error {
	d.syncs.Add(1)
	if d.cut.Load() {
		return ErrPowerCut
	}
	d.mu.Lock()
	fail := d.cfg.FailSyncProb > 0 && d.rng.Float64() < d.cfg.FailSyncProb
	d.mu.Unlock()
	if fail {
		d.fsyncs.Add(1)
		return ErrSyncFailed
	}
	if d.cfg.SyncDelay > 0 {
		time.Sleep(d.cfg.SyncDelay)
	}
	return Sync(d.inner)
}

func (d *FaultDevice) Close() error { return d.inner.Close() }
