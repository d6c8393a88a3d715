// Package storage provides the storage devices that back the FishStore
// hybrid log: a discarding null device (for in-memory ingestion experiments,
// §8.3 "Ingestion Scalability (In-Memory)"), an in-memory device, a plain
// file device, a rate-limited wrapper modeling a 2GB/s SSD's write path, and
// SimSSD — a deterministic simulated SSD with the cost model the paper's
// adaptive-prefetching analysis is built on (§7.2):
//
//	cost(read of n bytes) = syscall + latency_rand + n / bandwidth_seq
//
// SimSSD charges that cost to a virtual clock instead of sleeping, which
// makes the subset-retrieval experiments (Fig 16, 18, 19) reproducible on
// any machine.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Device is the interface the hybrid log uses to persist and reload pages.
// Offsets are logical byte addresses in the log's address space. A Device
// must be safe for concurrent use.
type Device interface {
	io.WriterAt
	io.ReaderAt
	Close() error
}

// Profile describes a device's performance characteristics. The adaptive
// prefetcher uses it to compute the locality threshold Φ (§7.2).
type Profile struct {
	// SeqBandwidth is sustained sequential throughput in bytes/second.
	SeqBandwidth float64
	// RandLatency is the fixed latency of one random I/O.
	RandLatency time.Duration
	// SyscallCost is the CPU cost of issuing one I/O.
	SyscallCost time.Duration
	// QueueBytes is the amount of data that fills the device queue; the
	// prefetcher never speculates beyond this.
	QueueBytes int
}

// DefaultSSDProfile models the paper's testbed (FusionIO NVMe, ~2GB/s
// sequential, ~100µs random read latency, ~5µs syscall).
func DefaultSSDProfile() Profile {
	return Profile{
		SeqBandwidth: 2 << 30,
		RandLatency:  100 * time.Microsecond,
		SyscallCost:  5 * time.Microsecond,
		QueueBytes:   8 << 20,
	}
}

// MemProfile models reads served straight from process memory: very high
// sequential bandwidth, sub-microsecond "random" latency, and a small queue.
// Φ for this profile is a few KB, so the adaptive prefetcher speculates in
// page-sized windows at most instead of the multi-megabyte windows an SSD
// profile would justify.
func MemProfile() Profile {
	return Profile{
		SeqBandwidth: 8 << 30,
		RandLatency:  500 * time.Nanosecond,
		SyscallCost:  100 * time.Nanosecond,
		QueueBytes:   256 << 10,
	}
}

// Profiler is implemented by devices that can describe their performance.
type Profiler interface {
	Profile() Profile
}

// Syncer is implemented by devices that can force written data onto stable
// media (fsync). Devices without a Syncer are treated as always-durable.
type Syncer interface {
	Sync() error
}

// Sync forces d onto stable media: it calls Sync on the first device in the
// wrapper chain that implements Syncer, unwrapping until the concrete device
// is reached. Devices that never implement Syncer (Mem, Null) are a no-op.
func Sync(d Device) error {
	for d != nil {
		if s, ok := d.(Syncer); ok {
			return s.Sync()
		}
		u, ok := d.(interface{ Unwrap() Device })
		if !ok {
			return nil
		}
		d = u.Unwrap()
	}
	return nil
}

// ErrReadFromNull is returned when reading from the null device.
var ErrReadFromNull = errors.New("storage: read from null device")

// ErrNoSpace is returned by writes that cannot complete because the device is
// out of capacity — the simulated analogue of ENOSPC. The store treats it as
// it treats every permanent write failure: it degrades to read-only.
var ErrNoSpace = errors.New("storage: no space left on device")

// Null discards all writes and fails all reads. It models the paper's "null
// device, which simply discards data to eliminate the disk bandwidth
// bottleneck".
type Null struct {
	written atomic.Int64
}

// NewNull returns a discarding device.
func NewNull() *Null { return &Null{} }

func (d *Null) WriteAt(p []byte, off int64) (int, error) {
	d.written.Add(int64(len(p)))
	return len(p), nil
}

func (d *Null) ReadAt(p []byte, off int64) (int, error) { return 0, ErrReadFromNull }
func (d *Null) Close() error                            { return nil }

// Profile reports an in-memory profile: the null device has no read path at
// all, so speculative reads can never pay for themselves.
func (d *Null) Profile() Profile { return MemProfile() }

// BytesWritten reports the total bytes discarded.
func (d *Null) BytesWritten() int64 { return d.written.Load() }

// Mem is an in-memory device backed by fixed-size segments, growable without
// copying and safe for concurrent use: reads of a segment share its lock,
// and a write to it excludes them, so a read never observes a torn copy.
type Mem struct {
	segSize int64
	mu      sync.RWMutex // guards segs
	segs    map[int64]*memSegment
	written atomic.Int64
}

// memSegment is one segment of a Mem device.
type memSegment struct {
	mu   sync.RWMutex // guards data's contents
	data []byte
}

// NewMem returns an in-memory device with 1MB segments.
func NewMem() *Mem { return NewMemSegSize(1 << 20) }

// NewMemSegSize returns an in-memory device with the given segment size.
func NewMemSegSize(segSize int64) *Mem {
	if segSize <= 0 {
		segSize = 1 << 20
	}
	return &Mem{segSize: segSize, segs: make(map[int64]*memSegment)}
}

func (d *Mem) segment(idx int64, create bool) *memSegment {
	d.mu.RLock()
	s := d.segs[idx]
	d.mu.RUnlock()
	if s != nil || !create {
		return s
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s = d.segs[idx]; s == nil {
		s = &memSegment{data: make([]byte, d.segSize)}
		d.segs[idx] = s
	}
	return s
}

func (d *Mem) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	n := 0
	for n < len(p) {
		idx, in := off/d.segSize, off%d.segSize
		seg := d.segment(idx, true)
		seg.mu.Lock()
		c := copy(seg.data[in:], p[n:])
		seg.mu.Unlock()
		n += c
		off += int64(c)
	}
	d.written.Add(int64(n))
	return n, nil
}

func (d *Mem) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	n := 0
	for n < len(p) {
		idx, in := off/d.segSize, off%d.segSize
		seg := d.segment(idx, false)
		if seg == nil {
			// Unwritten region reads as zeros, like a sparse file.
			z := int(d.segSize - in)
			if z > len(p)-n {
				z = len(p) - n
			}
			for i := 0; i < z; i++ {
				p[n+i] = 0
			}
			n += z
			off += int64(z)
			continue
		}
		seg.mu.RLock()
		c := copy(p[n:], seg.data[in:])
		seg.mu.RUnlock()
		n += c
		off += int64(c)
	}
	return n, nil
}

func (d *Mem) Close() error { return nil }

// Profile reports an honest in-memory profile. Without this, the adaptive
// prefetcher falls back to DefaultSSDProfile and speculatively reads
// multi-megabyte backward windows that cost far more than the RAM-speed
// random reads they replace.
func (d *Mem) Profile() Profile { return MemProfile() }

// BytesWritten reports total bytes written (including overwrites).
func (d *Mem) BytesWritten() int64 { return d.written.Load() }

// File is a device backed by a single file.
type File struct {
	f *os.File
}

// OpenFile creates (or truncates) a file-backed device at path.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	return &File{f: f}, nil
}

// OpenFileExisting opens an existing log file without truncation (recovery).
func OpenFileExisting(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	return &File{f: f}, nil
}

func (d *File) WriteAt(p []byte, off int64) (int, error) { return d.f.WriteAt(p, off) }
func (d *File) ReadAt(p []byte, off int64) (int, error)  { return d.f.ReadAt(p, off) }
func (d *File) Close() error                             { return d.f.Close() }

// Sync fsyncs the backing file.
func (d *File) Sync() error { return d.f.Sync() }

// Stats is SimSSD's I/O accounting.
type Stats struct {
	Reads        int64
	ReadBytes    int64
	Writes       int64
	WriteBytes   int64
	SimTimeNanos int64
}

// SimSSD wraps an inner device and charges every operation to a virtual
// clock according to its Profile. Reads and writes are forwarded to the
// inner device so data round-trips correctly.
type SimSSD struct {
	inner   Device
	profile Profile

	clock      atomic.Int64 // virtual nanoseconds
	reads      atomic.Int64
	readBytes  atomic.Int64
	writes     atomic.Int64
	writeBytes atomic.Int64
}

// NewSimSSD wraps inner with the given profile. If inner is nil a Mem device
// is used.
func NewSimSSD(inner Device, p Profile) *SimSSD {
	if inner == nil {
		inner = NewMem()
	}
	if p.SeqBandwidth <= 0 {
		p = DefaultSSDProfile()
	}
	return &SimSSD{inner: inner, profile: p}
}

// Profile returns the device's performance profile.
func (d *SimSSD) Profile() Profile { return d.profile }

func (d *SimSSD) charge(n int, random bool) {
	cost := d.profile.SyscallCost
	if random {
		cost += d.profile.RandLatency
	}
	cost += time.Duration(float64(n) / d.profile.SeqBandwidth * float64(time.Second))
	d.clock.Add(int64(cost))
}

func (d *SimSSD) ReadAt(p []byte, off int64) (int, error) {
	d.reads.Add(1)
	d.readBytes.Add(int64(len(p)))
	d.charge(len(p), true)
	return d.inner.ReadAt(p, off)
}

func (d *SimSSD) WriteAt(p []byte, off int64) (int, error) {
	d.writes.Add(1)
	d.writeBytes.Add(int64(len(p)))
	d.charge(len(p), false)
	return d.inner.WriteAt(p, off)
}

func (d *SimSSD) Close() error { return d.inner.Close() }

// SimTime returns the accumulated virtual time.
func (d *SimSSD) SimTime() time.Duration { return time.Duration(d.clock.Load()) }

// ResetClock zeroes the virtual clock and counters (e.g. between queries).
func (d *SimSSD) ResetClock() {
	d.clock.Store(0)
	d.reads.Store(0)
	d.readBytes.Store(0)
	d.writes.Store(0)
	d.writeBytes.Store(0)
}

// Stats returns a snapshot of I/O counters.
func (d *SimSSD) Stats() Stats {
	return Stats{
		Reads:        d.reads.Load(),
		ReadBytes:    d.readBytes.Load(),
		Writes:       d.writes.Load(),
		WriteBytes:   d.writeBytes.Load(),
		SimTimeNanos: d.clock.Load(),
	}
}

// RateLimited wraps a device and enforces a real-time write bandwidth cap
// with a token bucket, modeling ingestion saturating a physical SSD
// (Figs 10, 12). Reads are not limited.
type RateLimited struct {
	inner Device

	mu          sync.Mutex
	bytesPerSec float64
	available   float64 // token bucket level, bytes
	lastRefill  time.Time
	burst       float64
}

// NewRateLimited caps writes to bytesPerSec on inner.
func NewRateLimited(inner Device, bytesPerSec float64) *RateLimited {
	if inner == nil {
		inner = NewNull()
	}
	return &RateLimited{
		inner:       inner,
		bytesPerSec: bytesPerSec,
		burst:       bytesPerSec / 16, // ~62ms of burst
		available:   bytesPerSec / 16,
		lastRefill:  time.Now(),
	}
}

func (d *RateLimited) acquire(n int) {
	d.mu.Lock()
	now := time.Now()
	d.available += now.Sub(d.lastRefill).Seconds() * d.bytesPerSec
	if d.available > d.burst {
		d.available = d.burst
	}
	d.lastRefill = now
	// The bucket may go negative (debt); the caller sleeps the debt off.
	// Tokens refilled during the sleep pay the debt back on the next call.
	d.available -= float64(n)
	var wait time.Duration
	if d.available < 0 {
		wait = time.Duration(-d.available / d.bytesPerSec * float64(time.Second))
	}
	d.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

func (d *RateLimited) WriteAt(p []byte, off int64) (int, error) {
	d.acquire(len(p))
	return d.inner.WriteAt(p, off)
}

func (d *RateLimited) ReadAt(p []byte, off int64) (int, error) { return d.inner.ReadAt(p, off) }
func (d *RateLimited) Close() error                            { return d.inner.Close() }
