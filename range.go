package fishstore

import (
	"fmt"
	"math"

	"fishstore/internal/expr"
	"fishstore/internal/psf"
	"fishstore/internal/record"
)

// ScanRange answers a numeric range query [lo, hi) through a range-bucket
// PSF, the technique of Appendix B(5): "users can build indices over a
// bucketing function. Then, a range query can be answered by retrieving all
// records in the covering buckets, with post-filtering."
//
// id must identify a KindRangeBucket PSF. Every bucket overlapping
// [lo, hi) is retrieved through its hash chain; records whose actual field
// value falls outside the range are filtered out by re-parsing the field.
func (s *Store) ScanRange(id psf.ID, lo, hi float64, opts ScanOptions, cb func(r Record) bool) (ScanStats, error) {
	def, ok := s.registry.Lookup(id)
	if !ok {
		return ScanStats{}, fmt.Errorf("fishstore: unknown PSF id %d", id)
	}
	if def.Kind != psf.KindRangeBucket {
		return ScanStats{}, fmt.Errorf("fishstore: PSF %d is %s, not range-bucket", id, def.Kind)
	}
	if !(lo < hi) {
		return ScanStats{}, nil
	}
	psess, err := s.pf.NewSession(def.Fields)
	if err != nil {
		return ScanStats{}, err
	}
	field := def.Fields[0]

	// Post-filter: parse the field and check the true range.
	var agg ScanStats
	stopped := false
	filter := func(r Record) bool {
		parsed, perr := psess.Parse(r.Payload)
		if perr != nil {
			return true
		}
		v := parsed.Lookup(field)
		if v.Kind != expr.KindNumber || v.Num < lo || v.Num >= hi {
			return true
		}
		agg.Matched++
		if !cb(r) {
			stopped = true
			return false
		}
		return true
	}

	first := math.Floor(lo/def.BucketWidth) * def.BucketWidth
	for b := first; b < hi; b += def.BucketWidth {
		st, err := s.Scan(PropertyNumber(id, b), opts, filter)
		agg.Visited += st.Visited
		agg.IndexHops += st.IndexHops
		agg.FullScanBytes += st.FullScanBytes
		agg.IOs += st.IOs
		agg.ReadBytes += st.ReadBytes
		agg.PrefetchHits += st.PrefetchHits
		agg.PageCacheHits += st.PageCacheHits
		agg.Quarantined += st.Quarantined
		agg.Plan = append(agg.Plan, st.Plan...)
		if err != nil {
			return agg, err
		}
		if stopped {
			agg.Stopped = true
			break
		}
	}
	return agg, nil
}

// Iterate walks every visible record in [from, to) in address order,
// independent of any PSF — the raw access path used to migrate older raw
// data out of FishStore (e.g. into columnar formats, §1.4: "older raw data
// ... may eventually migrate to formats such as Parquet"). Zero values for
// from/to mean begin/tail.
func (s *Store) Iterate(from, to uint64, cb func(r Record) bool) error {
	from, to = s.clampRange(from, to)
	g := s.epoch.Acquire()
	defer g.Release()
	return s.visitRange(nil, g, from, to, nil, nil, func(addr uint64, v record.View) bool {
		if v.Header().Indirect() {
			return true // skip historical index records
		}
		return cb(Record{Address: addr, Payload: v.Payload()})
	})
}
