// Package metrics is FishStore-Go's metrics layer: a stdlib-only registry
// whose hot-path primitives (counters, gauges, the power-of-two Histogram)
// are single atomic operations — safe for concurrent Session workers without
// locks — and its export to Prometheus text, expvar and the
// /debug/fishstore/* JSON endpoints. Control-plane events are not metrics:
// they are zero-duration records in internal/trace, kept by the store.
//
// Design points:
//
//   - Every metric handle is nil-safe: methods on a nil *Counter, *Gauge, or
//     *Histogram are no-ops. A disabled registry (NewDisabled) hands out nil
//     handles, so instrumented code needs no branches and pays nothing but a
//     nil check when metrics are off.
//   - Registration is get-or-create keyed on (name, label set), and a
//     histogram family reports the merge of every histogram under it, so
//     several stores may share one registry (e.g. fishbench aggregating
//     every experiment store into a single scrape endpoint).
//   - Histograms use power-of-two buckets backed by atomic.Int64 arrays:
//     Observe is three uncontended atomic adds, no locks, no allocation. A
//     histogram owned elsewhere (a store's per-operation latencies) is
//     exported by reference with AttachHistogram, so each interval is timed
//     once and every view reads the same object.
//   - Export: Snapshot() for programmatic access (Store.Metrics()), and
//     Handler/NewMux (handler.go) for Prometheus text exposition, expvar,
//     and net/http/pprof.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Type is a metric family's kind, matching Prometheus exposition types.
type Type string

// Metric family types.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Export scales for histograms: observations are recorded as raw int64s and
// multiplied by the family's scale at export time.
const (
	// ScaleNanosToSeconds exports nanosecond observations as seconds
	// (Prometheus convention for durations).
	ScaleNanosToSeconds = 1e-9
	// ScaleNone exports raw values (byte sizes, counts).
	ScaleNone = 1.0
)

// Label is one constant key=value pair attached to a metric at registration.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil *Counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n < 0 is ignored: counters never go down).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Load returns the current value (0 for nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load returns the current value (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metric families. All methods are safe
// for concurrent use; registration takes a mutex, but the returned handles
// are lock-free. A nil *Registry behaves like a disabled one.
type Registry struct {
	disabled bool

	mu       sync.Mutex
	families map[string]*family
	order    []string

	// debug maps /debug/fishstore/<name> endpoints to snapshot functions
	// (RegisterDebug); guarded by mu, lazily allocated.
	debug map[string]func() any
}

type family struct {
	name, help string
	typ        Type
	scale      float64
	entries    []*entry
}

type entry struct {
	labels []Label
	key    string // canonical label rendering, for dedup
	c      *Counter
	g      *Gauge
	fn     func() float64
	// hs are the histograms exported under this entry; a snapshot reports
	// their merge (several stores sharing a registry each attach their own).
	hs []*Histogram
}

// NewRegistry creates an enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// NewDisabled creates a registry whose constructors return nil no-op handles
// and whose Snapshot is empty. Use it to measure or eliminate
// instrumentation overhead.
func NewDisabled() *Registry {
	return &Registry{disabled: true}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil && !r.disabled }

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	s := ""
	for _, l := range ls {
		s += l.Key + "\x00" + l.Value + "\x01"
	}
	return s
}

// getOrCreate returns the entry for (name, labels), creating family and
// entry as needed. Panics on a type conflict: that is a programming error.
func (r *Registry) getOrCreate(name, help string, typ Type, scale float64, labels []Label) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, scale: scale}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	key := labelKey(labels)
	for _, e := range f.entries {
		if e.key == key {
			return e
		}
	}
	e := &entry{labels: append([]Label(nil), labels...), key: key}
	switch typ {
	case TypeCounter:
		e.c = &Counter{}
	case TypeGauge:
		e.g = &Gauge{}
	}
	f.entries = append(f.entries, e)
	return e
}

// Counter returns the counter registered under (name, labels), creating it
// if needed. Returns nil (a no-op handle) on a disabled registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if !r.Enabled() {
		return nil
	}
	return r.getOrCreate(name, help, TypeCounter, ScaleNone, labels).c
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if !r.Enabled() {
		return nil
	}
	return r.getOrCreate(name, help, TypeGauge, ScaleNone, labels).g
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time. If (name, labels) is already registered the existing function wins
// (relevant when several stores share a registry: the first store attached
// provides the view).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if !r.Enabled() {
		return
	}
	e := r.getOrCreate(name, help, TypeGauge, ScaleNone, labels)
	r.mu.Lock()
	if e.fn == nil {
		e.fn = fn
	}
	r.mu.Unlock()
}

// Histogram returns a new histogram exported under (name, labels) (see
// AttachHistogram). scale converts raw observations at export
// (ScaleNanosToSeconds for latencies observed in nanoseconds, ScaleNone for
// sizes).
func (r *Registry) Histogram(name, help string, scale float64, labels ...Label) *Histogram {
	if !r.Enabled() {
		return nil
	}
	h := &Histogram{}
	r.AttachHistogram(h, name, help, scale, labels...)
	return h
}

// AttachHistogram exports h, owned by the caller, under (name, labels). The
// registry reads h itself at snapshot time; when several histograms are
// attached under one name (stores sharing a registry), the family reports
// their merge.
func (r *Registry) AttachHistogram(h *Histogram, name, help string, scale float64, labels ...Label) {
	if !r.Enabled() || h == nil {
		return
	}
	e := r.getOrCreate(name, help, TypeHistogram, scale, labels)
	r.mu.Lock()
	e.hs = append(e.hs, h)
	r.mu.Unlock()
}

// RegisterDebug exposes fn as the JSON introspection endpoint
// /debug/fishstore/<name> on any mux built from this registry (NewMux). The
// function is invoked at request time and its result rendered as JSON.
// First-wins per name, mirroring GaugeFunc: when several stores share a
// registry, the first store attached provides the view. Registration works
// even on a disabled registry — structural introspection is orthogonal to
// metric collection.
func (r *Registry) RegisterDebug(name string, fn func() any) {
	if r == nil || name == "" || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.debug == nil {
		r.debug = make(map[string]func() any)
	}
	if _, ok := r.debug[name]; !ok {
		r.debug[name] = fn
	}
}

// Debug returns the debug function registered under name.
func (r *Registry) Debug(name string) (func() any, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fn, ok := r.debug[name]
	return fn, ok
}

// DebugNames returns the registered debug endpoint names, sorted.
func (r *Registry) DebugNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.debug))
	for name := range r.debug {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---- snapshot ----

// Bucket is one cumulative histogram bucket: Count observations <= UpperBound.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// MetricSnapshot is the frozen state of one metric.
type MetricSnapshot struct {
	Labels []Label
	// Value is the counter or gauge value.
	Value float64
	// Histogram state (Count/Sum/Buckets; Buckets are cumulative).
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// Mean returns Sum/Count for histograms (0 when empty).
func (m MetricSnapshot) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// FamilySnapshot is the frozen state of a metric family.
type FamilySnapshot struct {
	Name, Help string
	Type       Type
	Metrics    []MetricSnapshot
}

// Snapshot is a point-in-time view of every family in a registry.
type Snapshot struct {
	Families []FamilySnapshot
}

// Find returns the snapshot of the metric registered under (name, labels).
func (s Snapshot) Find(name string, labels ...Label) (MetricSnapshot, bool) {
	key := labelKey(labels)
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, m := range f.Metrics {
			if labelKey(m.Labels) == key {
				return m, true
			}
		}
	}
	return MetricSnapshot{}, false
}

// Value returns the counter/gauge value of (name, labels), or 0 if absent.
func (s Snapshot) Value(name string, labels ...Label) float64 {
	m, _ := s.Find(name, labels...)
	return m.Value
}

// Snapshot freezes the registry. Gauge functions are evaluated outside the
// registration lock, so they may themselves read instrumented structures.
func (r *Registry) Snapshot() Snapshot {
	if !r.Enabled() {
		return Snapshot{}
	}
	type pending struct {
		fi, mi int
		fn     func() float64
	}
	r.mu.Lock()
	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(r.order))}
	var fns []pending
	for _, name := range r.order {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		for _, e := range f.entries {
			m := MetricSnapshot{Labels: append([]Label(nil), e.labels...)}
			switch {
			case e.c != nil:
				m.Value = float64(e.c.Load())
			case f.typ == TypeHistogram:
				m.Count, m.Sum, m.Buckets = exportHistogram(e.hs, f.scale)
			case e.g != nil:
				if e.fn != nil {
					fns = append(fns, pending{fi: len(snap.Families), mi: len(fs.Metrics), fn: e.fn})
				} else {
					m.Value = float64(e.g.Load())
				}
			}
			fs.Metrics = append(fs.Metrics, m)
		}
		snap.Families = append(snap.Families, fs)
	}
	r.mu.Unlock()
	for _, p := range fns {
		snap.Families[p.fi].Metrics[p.mi].Value = p.fn()
	}
	return snap
}

// exportHistogram merges hs and renders cumulative buckets whose bounds are
// BucketLe scaled for export: exact for integer samples, since bucket i
// holds exactly the integers in [2^(i-1), 2^i − 1]. The last bucket, which
// reaches the largest int64, is +Inf. Bounds divide by the whole number of
// raw units per exported unit (1e9 ns per s) instead of multiplying by its
// inexact reciprocal, so they render as 3e-09, not 3.0000000000000004e-09.
func exportHistogram(hs []*Histogram, scale float64) (count uint64, sum float64, out []Bucket) {
	var m Histogram
	for _, h := range hs {
		m.Merge(h)
	}
	s := m.Snapshot()
	out = make([]Bucket, HistogramBuckets)
	units := math.Round(1 / scale)
	var cum uint64
	for i, c := range s.Buckets {
		cum += uint64(c)
		bound := math.Inf(1)
		if i < HistogramBuckets-1 {
			bound = float64(BucketLe(i)) / units
		}
		out[i] = Bucket{UpperBound: bound, Count: cum}
	}
	return uint64(s.Count), float64(s.Sum) * scale, out
}
