// Package psf implements predicated subset functions (§2.1) and FishStore's
// on-demand indexing machinery (§5.3): the naming service that assigns
// deterministic PSF ids, the two-version registration metadata with the
// REST → PREPARE → PENDING state machine of Fig 7, and the safe
// registration / deregistration log boundaries that make index-backed scans
// sound.
package psf

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"fishstore/internal/epoch"
	"fishstore/internal/expr"
	"fishstore/internal/hashtable"
	"fishstore/internal/parser"
)

// ID is a PSF's deterministic id assigned by the naming service.
type ID = uint16

// Kind enumerates built-in PSF shapes.
type Kind uint8

const (
	// KindProjection maps a record to the value of one field (Π_C).
	KindProjection Kind = iota
	// KindPredicate maps a record to true when a boolean predicate holds.
	// Only true values are indexed unless IndexFalse is set.
	KindPredicate
	// KindRangeBucket maps a numeric field to its bucket's lower bound,
	// enabling predefined range queries over the buckets.
	KindRangeBucket
	// KindCustom evaluates a user function.
	KindCustom
)

func (k Kind) String() string {
	switch k {
	case KindProjection:
		return "projection"
	case KindPredicate:
		return "predicate"
	case KindRangeBucket:
		return "range-bucket"
	case KindCustom:
		return "custom"
	}
	return "unknown"
}

// Definition describes a PSF f: R -> D over a set of fields of interest.
type Definition struct {
	// Name is a human-readable identifier (unique per store).
	Name string
	// Kind selects the evaluation shape.
	Kind Kind
	// Fields are the dotted field paths the PSF reads.
	Fields []string
	// Predicate is the compiled predicate for KindPredicate.
	Predicate *expr.Expr
	// IndexFalse also indexes records where the predicate is false.
	IndexFalse bool
	// BucketWidth is the bucket width for KindRangeBucket over Fields[0].
	BucketWidth float64
	// Custom is the user function for KindCustom. Returning a missing or
	// null value leaves the record unindexed for this PSF.
	Custom func(p *parser.Parsed) expr.Value
	// Shards splits every property of this PSF across this many hash
	// chains (Appendix F: "introduce multiple hash entries for the same
	// PSF ... to traverse in parallel"). 0 or 1 means a single chain.
	// Ingestion spreads records round-robin; scans traverse all shards.
	Shards int
}

// Projection returns a field-projection PSF Π_field.
func Projection(field string) Definition {
	return Definition{Name: "proj(" + field + ")", Kind: KindProjection, Fields: []string{field}}
}

// Predicate compiles src into a boolean PSF indexing true values.
func Predicate(name, src string) (Definition, error) {
	e, err := expr.Parse(src)
	if err != nil {
		return Definition{}, err
	}
	return Definition{Name: name, Kind: KindPredicate, Fields: e.Fields(), Predicate: e}, nil
}

// MustPredicate is Predicate that panics on parse errors.
func MustPredicate(name, src string) Definition {
	d, err := Predicate(name, src)
	if err != nil {
		panic(err)
	}
	return d
}

// RangeBucket returns a PSF bucketing numeric field values by width.
func RangeBucket(field string, width float64) Definition {
	return Definition{
		Name:        fmt.Sprintf("bucket(%s,%g)", field, width),
		Kind:        KindRangeBucket,
		Fields:      []string{field},
		BucketWidth: width,
	}
}

// Custom returns a user-defined PSF over the given fields of interest.
func Custom(name string, fields []string, fn func(p *parser.Parsed) expr.Value) Definition {
	return Definition{Name: name, Kind: KindCustom, Fields: fields, Custom: fn}
}

// Validate checks structural invariants.
func (d *Definition) Validate() error {
	switch d.Kind {
	case KindProjection:
		if len(d.Fields) != 1 {
			return errors.New("psf: projection needs exactly one field")
		}
	case KindPredicate:
		if d.Predicate == nil {
			return errors.New("psf: predicate PSF without expression")
		}
	case KindRangeBucket:
		if len(d.Fields) != 1 || d.BucketWidth <= 0 {
			return errors.New("psf: range bucket needs one field and positive width")
		}
	case KindCustom:
		if d.Custom == nil {
			return errors.New("psf: custom PSF without function")
		}
	default:
		return fmt.Errorf("psf: unknown kind %d", d.Kind)
	}
	if d.Name == "" {
		return errors.New("psf: empty name")
	}
	if d.Shards < 0 || d.Shards > 64 {
		return fmt.Errorf("psf: Shards %d out of range [0,64]", d.Shards)
	}
	return nil
}

// ShardCount normalizes Shards to at least 1.
func (d *Definition) ShardCount() int {
	if d.Shards < 2 {
		return 1
	}
	return d.Shards
}

// Evaluate maps a parsed record to the PSF's value. A missing result means
// "do not index this record for this PSF" (the null of §2.1).
//
//fishlint:hotpath per-record PSF evaluation (~30% of ingest, Fig 12)
func (d *Definition) Evaluate(p *parser.Parsed) expr.Value {
	switch d.Kind {
	case KindProjection:
		v := p.Lookup(d.Fields[0])
		if v.Kind == expr.KindNull {
			return expr.Missing()
		}
		return v
	case KindPredicate:
		v := d.Predicate.Eval(p)
		if v.Kind != expr.KindBool {
			return expr.Missing()
		}
		if !v.Bool && !d.IndexFalse {
			return expr.Missing()
		}
		return v
	case KindRangeBucket:
		v := p.Lookup(d.Fields[0])
		if v.Kind != expr.KindNumber {
			return expr.Missing()
		}
		return expr.NumberVal(math.Floor(v.Num/d.BucketWidth) * d.BucketWidth)
	case KindCustom:
		v := d.Custom(p)
		if v.Kind == expr.KindNull {
			return expr.Missing()
		}
		return v
	}
	return expr.Missing()
}

// canonTrue and canonFalse back every boolean CanonicalValue result; they
// must never be mutated.
var canonTrue, canonFalse = []byte{'t'}, []byte{'f'}

// CanonicalValue renders a PSF value into its canonical byte form, used both
// to compute hash signatures (§5.1) and to post-filter hash collisions
// during chain traversal. Two values are the same property value iff their
// canonical bytes are equal. The returned slice may be shared: callers must
// treat it as read-only.
func CanonicalValue(v expr.Value) []byte {
	switch v.Kind {
	case expr.KindBool:
		// Shared singletons: CanonicalValue runs per record per predicate
		// PSF on the ingest path, and callers only read the bytes (hash,
		// compare, copy into keys) — hotalloc caught the per-call literals.
		if v.Bool {
			return canonTrue
		}
		return canonFalse
	case expr.KindNumber:
		return strconv.AppendFloat(nil, v.Num, 'g', -1, 64)
	case expr.KindString:
		return []byte(v.Str)
	}
	return nil
}

// PropertyHash computes the hash signature of property (id, v):
// Hash(fid(f) ++ canonical(v)).
func PropertyHash(id ID, v expr.Value) uint64 {
	return hashtable.HashProperty(id, CanonicalValue(v))
}

// ShardHash computes the hash signature of one shard of a sharded
// property's chain (Appendix F): the canonical value is extended with a
// shard suffix so each shard lands on its own hash entry. shard must be in
// [0, shards); shards <= 1 degenerates to the plain property hash.
func ShardHash(id ID, canonical []byte, shard, shards int) uint64 {
	if shards <= 1 {
		return hashtable.HashProperty(id, canonical)
	}
	buf := make([]byte, 0, len(canonical)+3)
	buf = append(buf, canonical...)
	buf = append(buf, 0x00, 0xf5, byte(shard))
	return hashtable.HashProperty(id, buf)
}

// Interval is a half-open address range [From, To) of the log over which a
// PSF's index is guaranteed complete. To == math.MaxUint64 means "still
// active".
type Interval struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// Open reports whether the interval is still being extended (PSF active).
func (iv Interval) Open() bool { return iv.To == math.MaxUint64 }

// Contains reports whether addr falls in the interval.
func (iv Interval) Contains(addr uint64) bool { return addr >= iv.From && addr < iv.To }

// Active is one registered PSF within a metadata version.
type Active struct {
	ID  ID
	Def Definition
}

// Meta is one immutable version of the registration metadata: the set of
// active PSFs and the union of their fields of interest (the minimum field
// set the parser must extract, §6.1).
type Meta struct {
	Version uint64
	PSFs    []Active
	Fields  []string
}

func buildFields(psfs []Active) []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range psfs {
		for _, f := range a.Def.Fields {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// State is the registry state of Fig 7.
type State int32

const (
	StateRest State = iota
	StatePrepare
	StatePending
)

func (s State) String() string {
	switch s {
	case StateRest:
		return "REST"
	case StatePrepare:
		return "PREPARE"
	case StatePending:
		return "PENDING"
	}
	return "?"
}

// Change is one index-altering request.
type Change struct {
	Register   *Definition // non-nil to register
	Deregister ID          // used when Register is nil
}

// Registry manages PSF registration. The control plane (Apply) is
// serialized by a mutex; the data plane (CurrentMeta) is a single atomic
// load per batch.
type Registry struct {
	epoch *epoch.Manager
	tail  func() uint64 // current log tail, for safe boundaries

	// applyMu serializes Apply's multi-stage protocol end to end. mu guards
	// the in-memory maps and counters and is shared with the query-path
	// readers (Lookup, Status, Intervals); Apply never holds it across the
	// epoch drain, so queries cannot stall behind a slow worker refresh.
	applyMu sync.Mutex
	mu      sync.Mutex
	metas   [2]atomic.Pointer[Meta]
	current atomic.Int32
	state   atomic.Int32
	nextID  ID
	version uint64

	// registered holds every PSF ever registered (ids are never reused, so
	// historical intervals stay queryable).
	registered map[ID]*registration

	// trace, if set via SetTrace before concurrent use, receives every
	// Fig 7 state transition ("prepare", "pending", "rest") with the
	// metadata version in force after the transition.
	trace func(state string, version uint64)
}

// SetTrace installs a state-transition observer. Must be called before the
// registry is used concurrently.
func (r *Registry) SetTrace(fn func(state string, version uint64)) { r.trace = fn }

// setState stores the state and notifies the tracer.
func (r *Registry) setState(st State, version uint64) {
	r.state.Store(int32(st))
	if r.trace != nil {
		switch st {
		case StateRest:
			r.trace("rest", version)
		case StatePrepare:
			r.trace("prepare", version)
		case StatePending:
			r.trace("pending", version)
		}
	}
}

type registration struct {
	def       Definition
	intervals []Interval
}

// NewRegistry creates a registry. tail supplies the current log tail
// address when boundaries are computed.
func NewRegistry(em *epoch.Manager, tail func() uint64) *Registry {
	r := &Registry{epoch: em, tail: tail, registered: make(map[ID]*registration)}
	empty := &Meta{Version: 0, PSFs: nil, Fields: nil}
	r.metas[0].Store(empty)
	r.metas[1].Store(empty)
	return r
}

// CurrentMeta returns the metadata version ingestion workers must use.
func (r *Registry) CurrentMeta() *Meta {
	return r.metas[r.current.Load()].Load()
}

// State returns the registry state.
func (r *Registry) State() State { return State(r.state.Load()) }

// Result reports the outcome of an Apply.
type Result struct {
	// Registered maps each new PSF's name to its assigned id.
	Registered map[string]ID
	// SafeRegisterBoundary: records at addresses >= this are guaranteed
	// indexed by the newly registered PSFs.
	SafeRegisterBoundary uint64
	// SafeDeregisterBoundary: records at addresses < this are guaranteed
	// indexed by the deregistered PSFs.
	SafeDeregisterBoundary uint64
}

// Apply atomically applies a list of registrations and deregistrations,
// following the multi-stage protocol of Fig 7, and blocks until the new
// metadata is visible to every ingestion worker (the PENDING -> REST
// transition). It returns the safe boundaries.
//
// Locking: applyMu serializes the protocol end to end; r.mu — which the
// query-path readers Lookup/Status/Intervals share — is held only for the
// in-memory mutations, never across the epoch drain. Draining waits for
// every ingestion worker to refresh its epoch, so holding r.mu there would
// stall concurrent subset queries behind the slowest worker (the puborder
// mutex-held-blocking-call class). Readers may therefore observe a
// registration whose intervals are not yet recorded: Lookup returns its
// definition and Intervals returns nothing, the same conservative view
// callers had before Apply returned.
func (r *Registry) Apply(changes []Change) (Result, error) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()

	res, newIDs, newMeta, err := r.prepare(changes)
	if err != nil {
		return Result{}, err
	}

	// No worker has yet *stopped* indexing deregistered properties, so the
	// tail now is the safe deregister boundary. It is read before the swap:
	// a worker that picks up the new meta right after it may allocate
	// before a later read.
	res.SafeDeregisterBoundary = r.tail()

	// PREPARE -> PENDING: swap the current pointer; workers start observing
	// the new meta.
	inactive := 1 - r.current.Load()
	r.metas[inactive].Store(newMeta)
	r.current.Store(inactive)
	r.setState(StatePending, newMeta.Version)

	done := make(chan struct{})
	r.epoch.BumpWith(func() {
		// PENDING -> REST: every worker has observed the new meta, so the
		// tail now is the safe register boundary.
		res.SafeRegisterBoundary = r.tail()
		r.metas[1-r.current.Load()].Store(newMeta)
		r.setState(StateRest, newMeta.Version)
		close(done)
	})
	// Block until every ingestion worker has refreshed (mirrors FishStore
	// returning boundaries to the caller). r.mu is NOT held here.
	//lint:ignore puborder applyMu is only ever contended by other Apply calls; the protocol must hold it across the drain, and queries take r.mu, which is free here
	r.epoch.WaitForSafe(r.epoch.Current() - 1)
	//lint:ignore puborder same: the drain is the PENDING->REST transition Apply exists to wait for
	<-done

	// Record intervals.
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range newIDs {
		reg := r.registered[id]
		reg.intervals = append(reg.intervals, Interval{From: res.SafeRegisterBoundary, To: math.MaxUint64})
	}
	for _, c := range changes {
		if c.Register == nil {
			reg := r.registered[c.Deregister]
			if n := len(reg.intervals); n > 0 && reg.intervals[n-1].Open() {
				reg.intervals[n-1].To = res.SafeDeregisterBoundary
			}
		}
	}
	return res, nil
}

// prepare runs the PREPARE phase under r.mu: validate the change list
// against the active meta and build the successor. It does not publish.
func (r *Registry) prepare(changes []Change) (Result, []ID, *Meta, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	res := Result{Registered: make(map[string]ID)}

	// PREPARE: apply the change list to the inactive meta.
	r.setState(StatePrepare, r.version)
	cur := r.CurrentMeta()
	next := make([]Active, 0, len(cur.PSFs)+len(changes))
	next = append(next, cur.PSFs...)

	var newIDs []ID
	for _, c := range changes {
		if c.Register != nil {
			def := *c.Register
			if err := def.Validate(); err != nil {
				r.setState(StateRest, r.version)
				return Result{}, nil, nil, err
			}
			for _, a := range next {
				if a.Def.Name == def.Name {
					r.setState(StateRest, r.version)
					return Result{}, nil, nil, fmt.Errorf("psf: name %q already registered", def.Name)
				}
			}
			id := r.nextID
			r.nextID++
			r.registered[id] = &registration{def: def}
			next = append(next, Active{ID: id, Def: def})
			res.Registered[def.Name] = id
			newIDs = append(newIDs, id)
		} else {
			found := false
			for i, a := range next {
				if a.ID == c.Deregister {
					next = append(next[:i], next[i+1:]...)
					found = true
					break
				}
			}
			if !found {
				r.setState(StateRest, r.version)
				return Result{}, nil, nil, fmt.Errorf("psf: id %d not active", c.Deregister)
			}
		}
	}

	r.version++
	newMeta := &Meta{Version: r.version, PSFs: next, Fields: buildFields(next)}
	return res, newIDs, newMeta, nil
}

// Register is a convenience for a single registration.
func (r *Registry) Register(def Definition) (ID, Result, error) {
	res, err := r.Apply([]Change{{Register: &def}})
	if err != nil {
		return 0, Result{}, err
	}
	return res.Registered[def.Name], res, nil
}

// Deregister is a convenience for a single deregistration.
func (r *Registry) Deregister(id ID) (Result, error) {
	return r.Apply([]Change{{Deregister: id}})
}

// Lookup returns the definition for id, whether or not it is still active.
func (r *Registry) Lookup(id ID) (Definition, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	reg, ok := r.registered[id]
	if !ok {
		return Definition{}, false
	}
	return reg.def, true
}

// LookupByName returns the id of the *active* PSF with the given name.
func (r *Registry) LookupByName(name string) (ID, bool) {
	for _, a := range r.CurrentMeta().PSFs {
		if a.Def.Name == name {
			return a.ID, true
		}
	}
	return 0, false
}

// Info is the lifecycle view of one PSF ever registered: its definition
// summary, whether it is currently active, and every address interval over
// which its index is complete (historical-index coverage). The last
// interval's To == math.MaxUint64 while the PSF is active.
type Info struct {
	ID        ID         `json:"id"`
	Name      string     `json:"name"`
	Kind      string     `json:"kind"`
	Fields    []string   `json:"fields,omitempty"`
	Shards    int        `json:"shards"`
	Active    bool       `json:"active"`
	Intervals []Interval `json:"intervals"`
}

// RegistryStatus is a point-in-time view of the whole registry: the Fig 7
// state machine position, the metadata version in force, and every PSF ever
// registered with its coverage intervals.
type RegistryStatus struct {
	State   string   `json:"state"` // REST | PREPARE | PENDING
	Version uint64   `json:"version"`
	Active  int      `json:"active_psfs"`
	Fields  []string `json:"fields_of_interest,omitempty"`
	PSFs    []Info   `json:"psfs"`
}

// Status snapshots the registry for introspection. It takes the control-
// plane mutex (never held by ingestion workers), so it cannot stall the
// data plane; a concurrent Apply simply serializes with it.
func (r *Registry) Status() RegistryStatus {
	meta := r.CurrentMeta()
	st := RegistryStatus{
		State:   r.State().String(),
		Version: meta.Version,
		Active:  len(meta.PSFs),
		Fields:  append([]string(nil), meta.Fields...),
	}
	r.mu.Lock()
	ids := make([]ID, 0, len(r.registered))
	for id := range r.registered {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		reg := r.registered[id]
		info := Info{
			ID:        id,
			Name:      reg.def.Name,
			Kind:      reg.def.Kind.String(),
			Fields:    append([]string(nil), reg.def.Fields...),
			Shards:    reg.def.ShardCount(),
			Intervals: append([]Interval(nil), reg.intervals...),
		}
		if n := len(reg.intervals); n > 0 && reg.intervals[n-1].Open() {
			info.Active = true
		}
		st.PSFs = append(st.PSFs, info)
	}
	r.mu.Unlock()
	return st
}

// Intervals returns the address intervals over which id's index is complete.
func (r *Registry) Intervals(id ID) []Interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	reg, ok := r.registered[id]
	if !ok {
		return nil
	}
	out := make([]Interval, len(reg.intervals))
	copy(out, reg.intervals)
	return out
}
