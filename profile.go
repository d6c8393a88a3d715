package fishstore

import (
	"bytes"

	"fishstore/internal/psf"
	"fishstore/internal/record"
)

// ChainHop describes one record on a property's hash chain (used by the
// Fig 19 locality case study).
type ChainHop struct {
	// KptAddr is the key pointer's address.
	KptAddr uint64
	// Base is the record's start address.
	Base uint64
	// SizeBytes is the record's size on the log.
	SizeBytes int
	// Gap is the number of bytes between this record's end and the
	// previous (higher-addressed) chain record's start; 0 for the first.
	Gap uint64
}

// ChainGapProfile walks the hash chain of prop from the tail down,
// returning up to max hops with their inter-record gaps. It reads through
// memory or storage as needed (without adaptive prefetching, so the profile
// reflects raw chain layout).
func (s *Store) ChainGapProfile(prop Property, max int) ([]ChainHop, error) {
	g := s.epoch.Acquire()
	defer g.Release()

	slot, ok := s.table.FindEntry(prop.hash())
	if !ok {
		return nil, nil
	}
	canon := psf.CanonicalValue(prop.Value)
	var hops []ChainHop
	var prevBase uint64
	cur := slot.Address()
	var cr *chainReader
	defer func() { cr.release() }()

	for cur != 0 && (max <= 0 || len(hops) < max) {
		var view record.View
		var base uint64
		if cur >= s.log.HeadAddress() {
			v, b, err := s.inMemoryRecordAt(cur)
			if err != nil {
				return hops, err
			}
			view, base = v, b
		} else {
			if cr == nil {
				cr = newChainReader(nil, s.log, false, nil, s.metrics, nil)
			}
			// On-device records are immutable; do not pin the safe epoch
			// across the chain reader's device I/O.
			g.Unprotect()
			v, b, err := cr.record(cur)
			g.Protect()
			if err != nil {
				return hops, err
			}
			view, base = v, b
		}
		ptrIndex := (int((cur-base)/8) - record.HeaderWords) / record.WordsPerPointer
		kp := view.KeyPointerAt(ptrIndex)
		h := view.Header()
		if h.Visible && !h.Invalid && kp.PSFID == prop.PSF && bytes.Equal(view.ValueBytes(kp), canon) {
			hop := ChainHop{KptAddr: cur, Base: base, SizeBytes: h.SizeWords * 8}
			if prevBase != 0 && prevBase > base+uint64(hop.SizeBytes) {
				hop.Gap = prevBase - (base + uint64(hop.SizeBytes))
			}
			hops = append(hops, hop)
			prevBase = base
		}
		cur = kp.PrevAddress
		if len(hops)%64 == 0 {
			g.Refresh()
		}
	}
	return hops, nil
}
