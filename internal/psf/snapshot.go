package psf

import (
	"fmt"
	"math"

	"fishstore/internal/expr"
	"fishstore/internal/parser"
)

// SnapshotEntry is the serializable state of one registered PSF, written
// into checkpoint manifests.
type SnapshotEntry struct {
	ID           ID
	Name         string
	Kind         Kind
	Fields       []string
	PredicateSrc string  `json:",omitempty"`
	IndexFalse   bool    `json:",omitempty"`
	BucketWidth  float64 `json:",omitempty"`
	Shards       int     `json:",omitempty"`
	Intervals    []Interval
	Active       bool
}

// Snapshot captures all registrations, active and historical.
func (r *Registry) Snapshot() ([]SnapshotEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	active := make(map[ID]bool)
	for _, a := range r.CurrentMeta().PSFs {
		active[a.ID] = true
	}
	out := make([]SnapshotEntry, 0, len(r.registered))
	for id, reg := range r.registered {
		e := SnapshotEntry{
			ID:          id,
			Name:        reg.def.Name,
			Kind:        reg.def.Kind,
			Fields:      reg.def.Fields,
			IndexFalse:  reg.def.IndexFalse,
			BucketWidth: reg.def.BucketWidth,
			Shards:      reg.def.Shards,
			Intervals:   append([]Interval(nil), reg.intervals...),
			Active:      active[id],
		}
		if reg.def.Predicate != nil {
			e.PredicateSrc = reg.def.Predicate.Source()
		}
		if reg.def.Kind == KindCustom {
			return nil, fmt.Errorf("psf: custom PSF %q cannot be checkpointed; supply it via RecoverOptions.CustomPSFs", reg.def.Name)
		}
		out = append(out, e)
	}
	return out, nil
}

// Restore rebuilds the registry from snapshot entries, preserving ids and
// intervals. custom resolves custom PSF functions by name (may be nil when
// none were registered).
func (r *Registry) Restore(entries []SnapshotEntry, custom map[string]func(*parser.Parsed) expr.Value) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var actives []Active
	var maxID ID
	for _, e := range entries {
		def := Definition{
			Name:        e.Name,
			Kind:        e.Kind,
			Fields:      e.Fields,
			IndexFalse:  e.IndexFalse,
			BucketWidth: e.BucketWidth,
			Shards:      e.Shards,
		}
		switch e.Kind {
		case KindPredicate:
			ex, err := expr.Parse(e.PredicateSrc)
			if err != nil {
				return fmt.Errorf("psf: restoring %q: %w", e.Name, err)
			}
			def.Predicate = ex
		case KindCustom:
			fn, ok := custom[e.Name]
			if !ok {
				return fmt.Errorf("psf: restoring custom PSF %q: no function supplied", e.Name)
			}
			def.Custom = fn
		}
		if err := def.Validate(); err != nil {
			return fmt.Errorf("psf: restoring %q: %w", e.Name, err)
		}
		r.registered[e.ID] = &registration{
			def:       def,
			intervals: append([]Interval(nil), e.Intervals...),
		}
		if e.Active {
			actives = append(actives, Active{ID: e.ID, Def: def})
		}
		if e.ID >= maxID {
			maxID = e.ID + 1
		}
	}
	r.nextID = maxID
	r.version++
	meta := &Meta{Version: r.version, PSFs: actives, Fields: buildFields(actives)}
	r.metas[0].Store(meta)
	r.metas[1].Store(meta)
	return nil
}

// ExtendInterval adds a completed historical index interval for id
// (Appendix A). Overlapping intervals of the same kind are merged.
func (r *Registry) ExtendInterval(id ID, iv Interval) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	reg, ok := r.registered[id]
	if !ok {
		return fmt.Errorf("psf: unknown id %d", id)
	}
	iv.Historical = true
	reg.intervals = mergeIntervals(append(reg.intervals, iv))
	return nil
}

// mergeIntervals sorts and coalesces overlapping/adjacent intervals of the
// same kind.
func mergeIntervals(ivs []Interval) []Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	// Insertion sort by From (tiny lists).
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].From < ivs[j-1].From; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Historical == last.Historical && (iv.From <= last.To || last.To == math.MaxUint64) {
			if iv.To > last.To {
				last.To = iv.To
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}
