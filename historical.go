package fishstore

import (
	"encoding/binary"
	"fmt"

	"fishstore/internal/epoch"
	"fishstore/internal/expr"
	"fishstore/internal/hashtable"
	"fishstore/internal/parser"
	"fishstore/internal/psf"
	"fishstore/internal/record"
)

// BuildHistoricalIndex builds a subset index for PSF id over an *already
// ingested* log range [from, to) (Appendix A). FishStore never re-indexes
// in place; instead it appends small *indirect* index records to the tail —
// each carrying one key pointer plus the 8-byte address of the matching
// data record — and extends the PSF's indexed intervals to cover the range.
// Subsequent scans over [from, to) then use the hash chains and resolve the
// indirection transparently.
//
// The PSF must be registered (active or not). The call full-scans the range
// once, so its cost is one pass over [from, to).
func (s *Store) BuildHistoricalIndex(id psf.ID, from, to uint64) (int64, error) {
	def, ivs, ok := s.registry.LookupIntervals(id, nil)
	if !ok {
		return 0, fmt.Errorf("fishstore: unknown PSF id %d", id)
	}
	from, to = s.clampRange(from, to)
	if from >= to {
		return 0, nil
	}
	// Skip sub-ranges that are already indexed.
	plan := planScan(nil, ivs, from, to, ScanAuto)

	psess, err := s.pf.NewSession(def.Fields)
	if err != nil {
		return 0, err
	}

	pageSize := s.log.PageSize()
	var built int64
	for _, seg := range plan {
		if seg.Indexed {
			continue
		}
		// One page at a time, each under the checkpoint barrier as an
		// ingest batch is: a checkpoint then never sees an index record
		// half linked, and waits for at most one page of them.
		for from := seg.From; from < seg.To; {
			to := min(seg.To, from&^(pageSize-1)+pageSize)
			n, err := s.indexPage(psess, def, id, from, to)
			built += n
			if err != nil {
				return built, err
			}
			from = to
		}
		// The range is now covered: record it so scan planning uses chains.
		if err := s.registry.ExtendInterval(id, psf.Interval{From: seg.From, To: seg.To}); err != nil {
			return built, err
		}
	}
	return built, nil
}

// indexPage appends an indirect index record for every record in [from, to)
// that PSF id maps to a value. The barrier is taken before the epoch guard,
// as in Session.Ingest: a checkpoint holding it waits for pinned epochs to
// drain, so a guard must never wait for the barrier.
func (s *Store) indexPage(psess parser.Session, def psf.Definition, id psf.ID, from, to uint64) (int64, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	g := s.epoch.Acquire()
	defer g.Release()

	var built int64
	var appendErr error
	var payload, canonical []byte // reused for every record of the page
	err := s.visitRange(nil, g, from, to, nil, nil, func(addr uint64, v record.View) bool {
		if v.Header().Indirect() {
			return true // never index index records
		}
		payload = v.AppendPayload(payload[:0])
		parsed, perr := psess.Parse(payload)
		if perr != nil {
			return true
		}
		val := def.Evaluate(parsed)
		if val.Kind == expr.KindMissing {
			return true
		}
		canonical = psf.AppendCanonical(canonical[:0], val)
		if err := s.appendIndirect(g, id, val, canonical, addr); err != nil {
			appendErr = err
			return false
		}
		built++
		return true
	})
	// An append failure must abort the build: marking the interval
	// covered with index records missing would silently drop matches
	// from every future chain-planned scan over this range.
	if err == nil {
		err = appendErr
	}
	return built, err
}

// appendIndirect writes one indirect index record for (id, val) -> target;
// canonical is val's canonical bytes.
func (s *Store) appendIndirect(g *epoch.Guard, id psf.ID, val expr.Value, canonical []byte, target uint64) error {
	var ps record.PointerSpec
	ps.PSFID = id
	if val.Kind == expr.KindBool {
		ps.Mode = record.ModeBool
		ps.BoolValue = val.Bool
	} else {
		ps.Mode = record.ModeValueRegion
		ps.ValOffset = 0
		ps.ValSize = len(canonical)
	}
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], target)
	spec := record.Spec{
		Payload:  payload[:],
		Pointers: []record.PointerSpec{ps},
		Indirect: true,
		Checksum: !s.opts.disableRecordChecksums,
	}
	if ps.Mode == record.ModeValueRegion {
		spec.ValueRegion = canonical
	}
	alloc, err := s.log.Allocate(g, spec.SizeWords())
	if err != nil {
		return err
	}
	spec.Write(alloc.Words)
	view := record.View{Words: alloc.Words}
	wi := view.PointerWordIndex(0)
	var h uint64
	if def, ok := s.registry.Lookup(id); ok && def.ShardCount() > 1 {
		shards := def.ShardCount()
		h = psf.ShardHash(id, canonical, shardOf(alloc.Address, shards), shards)
	} else {
		h = hashtable.HashProperty(id, canonical)
	}
	if err := s.linkPointer(h, alloc.Address+uint64(wi)*8, &view.Words[wi]); err != nil {
		return err
	}
	view.SetVisible()
	return nil
}
