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
	var st ScanStats // chain-walk I/O accounting, discarded
	err := s.forEachChainLink(nil, g, slot.Address(), s.logBegin(), false, nil, &st,
		func(cur uint64, view record.View, base uint64, kp record.KeyPointer) bool {
			h := view.Header()
			if h.Visible() && !h.Invalid() && kp.PSFID() == prop.PSF && bytes.Equal(view.ValueBytes(kp), canon) {
				hop := ChainHop{KptAddr: cur, Base: base, SizeBytes: h.SizeWords() * 8}
				if prevBase != 0 && prevBase > base+uint64(hop.SizeBytes) {
					hop.Gap = prevBase - (base + uint64(hop.SizeBytes))
				}
				hops = append(hops, hop)
				prevBase = base
			}
			return max <= 0 || len(hops) < max
		})
	return hops, err
}
