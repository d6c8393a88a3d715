package fishstore

import (
	"sync/atomic"

	"fishstore/internal/hashtable"
	"fishstore/internal/record"
)

// linkPointer splices the key pointer at kptAddr (word index wi of words,
// which alias the live page frame) into the hash chain for signature h,
// implementing Algorithm 1 (Appendix D) / Fig 8.
//
// Invariant maintained: a hash chain never contains a forward link (a
// pointer from a lower to a higher address), so chain traversals move
// strictly from the tail toward older data and never jump back into memory
// after reaching disk.
//
// The easy case CASes the hash entry to point at our key pointer, retrying
// while the entry still points below us. Once the entry points above us we
// walk the chain to the unique splice point P — the first pointer with
// P.addr > kptAddr >= P.prev — and CAS P's previous address. A failed CAS
// there means a concurrent insert landed after P; we resume walking from P.
// No CAS failure ever requires reallocating the record, so write
// amplification is zero.
func (s *Store) linkPointer(h uint64, kptAddr uint64, wordA *uint64) error {
	slot, err := s.table.FindOrCreate(h)
	if err != nil {
		return err
	}
	// Easy case: hash entry points below us (or chain is empty).
	for {
		entryWord := slot.Load()
		entryAddr := hashtable.Unpack(entryWord).Address
		if entryAddr >= kptAddr {
			break // Fig 8(b): forward link would form; go find the splice point
		}
		record.SetPrevAddress(wordA, entryAddr)
		if slot.CompareAndSwapAddress(entryWord, kptAddr) {
			return nil
		}
	}

	// Hard case: walk down from the entry. Every address we touch is above
	// kptAddr and kptAddr is near the tail, so all loads hit the in-memory
	// circular buffer.
	cur := slot.Address()
	for {
		pw := s.pointerWord(cur)
		pa := atomic.LoadUint64(pw)
		prev := record.KeyPointer{A: pa}.PrevAddress()
		if prev > kptAddr {
			cur = prev // keep walking toward older records
			continue
		}
		// Splice between cur and prev: our.prev = prev, cur.prev = us.
		record.SetPrevAddress(wordA, prev)
		if record.SwapPrevAddress(pw, pa, kptAddr) {
			return nil
		}
		// Fig 8(c): somebody spliced after cur first; re-examine cur.
	}
}

// linkPointerNaive is the unmodified-FASTER strategy used by the Fig 17
// ablation (FishStore-badCAS): one CAS attempt on the hash entry; on failure
// the caller must invalidate and reallocate the whole record.
func (s *Store) linkPointerNaive(h uint64, kptAddr uint64, wordA *uint64) (bool, error) {
	slot, err := s.table.FindOrCreate(h)
	if err != nil {
		return false, err
	}
	entryWord := slot.Load()
	entryAddr := hashtable.Unpack(entryWord).Address
	if entryAddr >= kptAddr {
		// Reallocation is the only way to avoid a forward link here.
		return false, nil
	}
	record.SetPrevAddress(wordA, entryAddr)
	return slot.CompareAndSwapAddress(entryWord, kptAddr), nil
}

// pointerWord returns a pointer to the in-memory word holding the key
// pointer at addr. The caller must hold epoch protection and addr must be at
// or above the safe head address.
func (s *Store) pointerWord(addr uint64) *uint64 {
	w := s.log.WordsAt(addr, 1)
	return &w[0]
}
