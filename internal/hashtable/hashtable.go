// Package hashtable implements the latch-free, cache-aligned hash table that
// FishStore borrows from FASTER (§3.1, §6.3 of the paper).
//
// The table is an array of 64-byte buckets. Each bucket holds seven 8-byte
// entries plus one overflow word linking to an overflow bucket. An entry
// packs a 14-bit tag (additional hash bits used to disambiguate keys that
// share a bucket) and a 48-bit log address — the head of the hash chain for
// that (PSF, value) property. All reads and updates of entries are atomic
// and latch-free; new entries are claimed with a two-phase
// tentative-bit protocol so that two threads racing to insert the same tag
// cannot create duplicate entries.
//
// The table does not store keys: key material lives in the key pointers on
// the log, which is why its footprint is independent of data size (Appendix
// B of the paper).
package hashtable

import (
	"math/bits"
	"sync/atomic"

	"fishstore/internal/metrics"
)

const (
	// entriesPerBucket is the number of usable entries per 64-byte bucket;
	// the eighth word links to an overflow bucket.
	entriesPerBucket = 7
	wordsPerBucket   = 8

	tentativeBit = uint64(1) << 63
	occupiedBit  = uint64(1) << 62
	tagShift     = 48
	tagBits      = 14
	tagMask      = (uint64(1)<<tagBits - 1) << tagShift
	addressMask  = uint64(1)<<48 - 1
)

// Entry is the decoded form of a hash-table entry word.
type Entry struct {
	Tag       uint16
	Address   uint64
	Tentative bool
	Occupied  bool
}

// pack encodes an entry into its word form.
func pack(tag uint16, address uint64, tentative bool) uint64 {
	w := occupiedBit | (uint64(tag) << tagShift & tagMask) | (address & addressMask)
	if tentative {
		w |= tentativeBit
	}
	return w
}

// Unpack decodes an entry word.
func Unpack(w uint64) Entry {
	return Entry{
		Tag:       uint16((w & tagMask) >> tagShift),
		Address:   w & addressMask,
		Tentative: w&tentativeBit != 0,
		Occupied:  w&occupiedBit != 0,
	}
}

// Slot is a stable reference to a single table entry. Its methods are safe
// for concurrent use.
type Slot struct{ p *uint64 }

// Load atomically reads the entry word.
func (s Slot) Load() uint64 { return atomic.LoadUint64(s.p) }

// Address atomically reads the chain-head address of the entry.
func (s Slot) Address() uint64 { return atomic.LoadUint64(s.p) & addressMask }

// CompareAndSwapAddress installs newAddr as the chain head iff the current
// word equals old. The tag and flag bits of old are preserved.
func (s Slot) CompareAndSwapAddress(old uint64, newAddr uint64) bool {
	newWord := (old &^ addressMask) | (newAddr & addressMask)
	return atomic.CompareAndSwapUint64(s.p, old, newWord)
}

// maxSegments segments of base<<k buckets reach every uint64 index.
const maxSegments = 64

// Table is a latch-free hash table. Create with New.
//
// Overflow bucket indices run through doubling segments: segment k holds
// base<<k buckets from index base·(2^k−1). A segment is installed when the
// cursor first hands out one of its indices, and is never moved or freed.
type Table struct {
	buckets []uint64 // numBuckets * wordsPerBucket words
	mask    uint64   // numBuckets - 1

	base         uint64 // buckets in overflow segment 0
	overflow     [maxSegments]atomic.Pointer[[]uint64]
	overflowNext atomic.Uint64

	// Instrumentation, set once via Instrument before concurrent use. The
	// metric handles are nil-safe; uninstrumented tables pay a nil check on
	// the (rare) create/overflow paths and nothing on lookups.
	entriesCreated  *metrics.Counter
	overflowAppends *metrics.Counter
	onGrow          func(overflowBuckets int)
}

// Instrument attaches counters for entry creation and overflow growth, plus
// an optional callback invoked after each overflow bucket is linked (with the
// number of overflow buckets now in use). Must be called before the table is
// used concurrently.
func (t *Table) Instrument(entriesCreated, overflowAppends *metrics.Counter, onGrow func(overflowBuckets int)) {
	t.entriesCreated = entriesCreated
	t.overflowAppends = overflowAppends
	t.onGrow = onGrow
}

// New creates a table with numBuckets main buckets (rounded up to a power of
// two) and a first overflow segment of overflowBuckets buckets; later
// segments double in size as the table needs them.
func New(numBuckets int, overflowBuckets int) *Table {
	if numBuckets < 1 {
		numBuckets = 1
	}
	nb := 1 << bits.Len(uint(numBuckets-1))
	if nb < numBuckets {
		nb <<= 1
	}
	t := &Table{
		buckets: make([]uint64, nb*wordsPerBucket),
		mask:    uint64(nb - 1),
		base:    uint64(max(overflowBuckets, 1)),
	}
	t.grow(0)
	t.overflowNext.Store(1) // overflow index 0 means "none"
	return t
}

// NumBuckets returns the number of main buckets.
func (t *Table) NumBuckets() int { return len(t.buckets) / wordsPerBucket }

// SizeBytes returns the main-array footprint in bytes.
func (t *Table) SizeBytes() int { return len(t.buckets) * 8 }

// bucketWords returns the words of main bucket b.
func (t *Table) bucketWords(b uint64) *[wordsPerBucket]uint64 {
	return (*[wordsPerBucket]uint64)(t.buckets[b*wordsPerBucket:])
}

// segmentOf returns the segment holding overflow index idx and idx's
// bucket within it.
func segmentOf(base, idx uint64) (k int, off uint64) {
	if idx < base {
		return 0, idx
	}
	k = bits.Len64(idx/base+1) - 1
	return k, idx - base*(1<<k-1)
}

// grow installs segment k unless it is there already.
func (t *Table) grow(k int) {
	if t.overflow[k].Load() == nil {
		//lint:ignore hotalloc once per doubling of the overflow buckets
		seg := make([]uint64, t.base<<k*wordsPerBucket)
		t.overflow[k].CompareAndSwap(nil, &seg)
	}
}

// next returns the overflow bucket linked after the bucket words, or nil
// at the chain's end.
func (t *Table) next(words *[wordsPerBucket]uint64) *[wordsPerBucket]uint64 {
	if idx := atomic.LoadUint64(&words[entriesPerBucket]); idx != 0 {
		return t.overflowWords(idx)
	}
	return nil
}

// overflowWords is kept out of line so that next, the chain walk step,
// inlines.
//
//go:noinline
func (t *Table) overflowWords(idx uint64) *[wordsPerBucket]uint64 {
	k, off := segmentOf(t.base, idx)
	return (*[wordsPerBucket]uint64)((*t.overflow[k].Load())[off*wordsPerBucket:])
}

func splitHash(h uint64, mask uint64) (bucket uint64, tag uint16) {
	bucket = h & mask
	tag = uint16((h >> 48) & (1<<tagBits - 1))
	return
}

// FindEntry locates the entry for hash h, if present. Tentative entries are
// treated as absent.
func (t *Table) FindEntry(h uint64) (Slot, bool) {
	bkt, tag := splitHash(h, t.mask)
	for words := t.bucketWords(bkt); words != nil; words = t.next(words) {
		for i := 0; i < entriesPerBucket; i++ {
			e := Unpack(atomic.LoadUint64(&words[i]))
			if e.Occupied && !e.Tentative && e.Tag == tag {
				return Slot{p: &words[i]}, true
			}
		}
	}
	return Slot{}, false
}

// FindOrCreate locates the entry for hash h, creating it (with address 0) if
// absent. Creation uses the two-phase tentative protocol: claim a free slot
// with the tentative bit set, re-scan for a concurrent duplicate, then clear
// the tentative bit. The overflow buckets grow as needed, so the error is
// always nil.
func (t *Table) FindOrCreate(h uint64) (Slot, error) {
	bkt, tag := splitHash(h, t.mask)
	for {
		// Pass 1: look for an existing entry and remember a free slot.
		var free *uint64
		var last *[wordsPerBucket]uint64
		for words := t.bucketWords(bkt); words != nil; words = t.next(words) {
			for i := 0; i < entriesPerBucket; i++ {
				w := atomic.LoadUint64(&words[i])
				e := Unpack(w)
				if e.Occupied && !e.Tentative && e.Tag == tag {
					return Slot{p: &words[i]}, nil
				}
				if w == 0 && free == nil {
					free = &words[i]
				}
			}
			last = words
		}

		if free == nil {
			if free = t.appendOverflow(last); free == nil {
				continue // another thread linked a new overflow bucket; rescan
			}
		}

		// Phase 1: claim the slot tentatively.
		if !atomic.CompareAndSwapUint64(free, 0, pack(tag, 0, true)) {
			continue // lost the slot; rescan
		}

		// Phase 2: check for a duplicate (tentative or final) with our tag.
		if t.hasDuplicate(bkt, tag, free) {
			atomic.StoreUint64(free, 0) // back off
			continue
		}

		// Finalize.
		atomic.StoreUint64(free, pack(tag, 0, false))
		t.entriesCreated.Inc()
		return Slot{p: free}, nil
	}
}

// hasDuplicate scans the whole bucket chain for another entry with the same
// tag, excluding self.
func (t *Table) hasDuplicate(bkt uint64, tag uint16, self *uint64) bool {
	for words := t.bucketWords(bkt); words != nil; words = t.next(words) {
		for i := 0; i < entriesPerBucket; i++ {
			if &words[i] == self {
				continue
			}
			e := Unpack(atomic.LoadUint64(&words[i]))
			if e.Occupied && e.Tag == tag {
				return true
			}
		}
	}
	return false
}

// appendOverflow links a fresh overflow bucket after the last bucket in the
// chain (whose words are given) and returns a pointer to its first entry
// word. It returns nil if another thread raced to link one first. The
// bucket's segment is installed before the link CAS publishes its index, so
// every reader that loads a link finds the segment.
func (t *Table) appendOverflow(last *[wordsPerBucket]uint64) *uint64 {
	idx := t.overflowNext.Add(1) - 1
	k, _ := segmentOf(t.base, idx)
	t.grow(k)
	if !atomic.CompareAndSwapUint64(&last[entriesPerBucket], 0, idx) {
		// Lost the race. The pre-claimed overflow bucket is leaked; this is
		// rare and bounded by thread count, matching FASTER's behaviour of
		// trading a small leak for latch-freedom.
		return nil
	}
	w := t.next(last)
	t.overflowAppends.Inc()
	if t.onGrow != nil {
		t.onGrow(int(idx))
	}
	return &w[0]
}

// Delete clears the entry for hash h (used by tests and PSF deregistration
// cleanup). Returns true if an entry was cleared.
func (t *Table) Delete(h uint64) bool {
	s, ok := t.FindEntry(h)
	if !ok {
		return false
	}
	for {
		w := s.Load()
		if atomic.CompareAndSwapUint64(s.p, w, 0) {
			return true
		}
	}
}

// Stats describes table occupancy.
type Stats struct {
	UsedEntries     int
	OverflowBuckets int
}

// Stats reports Occupancy's counts.
func (t *Table) Stats() Stats {
	oc := t.Occupancy()
	return Stats{UsedEntries: oc.UsedEntries + oc.TentativeEntries, OverflowBuckets: oc.OverflowUsed}
}

// Occupancy describes table occupancy in the detail the introspection
// endpoints serve: slot counts split by finalized vs tentative, overflow
// usage, and a per-bucket fill distribution over the main buckets.
type Occupancy struct {
	Buckets          int // main buckets
	UsedEntries      int // occupied, finalized (main + overflow)
	TentativeEntries int // occupied, mid two-phase insert
	OverflowUsed     int // overflow buckets linked into chains
	OverflowCap      int // overflow buckets allocated, but for index 0
	// BucketFill[k] counts main buckets with exactly k used slots
	// (k = 0..entriesPerBucket); overflow entries count toward their
	// home bucket's fill, clamped at entriesPerBucket.
	BucketFill []int
}

// Occupancy scans the table with atomic loads; it is fuzzy (not
// linearizable) and never blocks inserters.
func (t *Table) Occupancy() Occupancy {
	nb := t.NumBuckets()
	// Segments cover every index the cursor handed out but "none", 0.
	k, _ := segmentOf(t.base, t.overflowNext.Load()-1)
	oc := Occupancy{
		Buckets:     nb,
		OverflowCap: int(t.base<<(k+1)-t.base) - 1,
		BucketFill:  make([]int, entriesPerBucket+1),
	}
	for b := 0; b < nb; b++ {
		fill := 0
		oc.OverflowUsed-- // for the main bucket
		for words := t.bucketWords(uint64(b)); words != nil; words = t.next(words) {
			oc.OverflowUsed++
			for i := 0; i < entriesPerBucket; i++ {
				w := atomic.LoadUint64(&words[i])
				if w == 0 {
					continue
				}
				if w&tentativeBit != 0 {
					oc.TentativeEntries++
				} else {
					oc.UsedEntries++
				}
				fill++
			}
		}
		if fill > entriesPerBucket {
			fill = entriesPerBucket
		}
		oc.BucketFill[fill]++
	}
	return oc
}

// Range calls fn for every occupied, non-tentative entry.
func (t *Table) Range(fn func(hashBucket uint64, e Entry, s Slot) bool) {
	nb := t.NumBuckets()
	for b := 0; b < nb; b++ {
		for words := t.bucketWords(uint64(b)); words != nil; words = t.next(words) {
			for i := 0; i < entriesPerBucket; i++ {
				e := Unpack(atomic.LoadUint64(&words[i]))
				if e.Occupied && !e.Tentative && !fn(uint64(b), e, Slot{p: &words[i]}) {
					return
				}
			}
		}
	}
}
