// Package trace is FishStore's span and event model: explicit parent/child
// spans with IDs, monotonic nanosecond timing, per-span attributes and
// (optionally) heap-allocation deltas. A control-plane event (a checkpoint,
// a PSF state transition, a page flush) is the same record — a zero-duration
// root SpanData built by Event — so the store keeps one event stream.
//
// It is stdlib-only and allocation-conscious — the disabled path is one
// atomic load and every *Span method is nil-receiver safe, so instrumented
// code never branches on configuration:
//
//	sp := tracer.StartRoot("scan")   // nil when disabled or unsampled
//	child := sp.Child("scan.plan")   // nil-safe
//	child.SetInt("segments", n)      // nil-safe
//	child.End()
//	sp.End()
//
// Sampling is deterministic: a seeded hash over the root-span sequence
// number decides whether a root is sampled, and children inherit the
// decision by construction (an unsampled root is nil, so its children are
// nil too). Finished spans land in a bounded ring; export them with Spans,
// as Chrome trace-event JSON loadable in Perfetto, or as JSON lines
// (export.go).
package trace

import (
	"math"
	rm "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"fishstore/internal/introspect"
)

// Options configures a Tracer.
type Options struct {
	// SampleEvery samples one in N root spans (deterministically, from Seed).
	// 0 or 1 samples every root.
	SampleEvery uint64
	// Seed seeds the sampling hash. Two tracers with the same Seed and
	// SampleEvery sample the same root sequence numbers.
	Seed uint64
	// BufferSize is the finished-span ring capacity (default 4096). Older
	// spans are dropped (and counted) when the ring wraps.
	BufferSize int
	// CaptureAllocs records a heap-allocation delta (process-wide
	// /gc/heap/allocs:bytes) across each span. The reading costs a
	// runtime/metrics sample at span start and end; deltas from concurrent
	// goroutines are attributed to every span they overlap, so treat the
	// number as an attribution hint, not an exact per-span count.
	CaptureAllocs bool
}

// Tracer creates spans and retains the finished ones. Safe for concurrent
// use. A nil *Tracer is valid and permanently disabled.
type Tracer struct {
	enabled     atomic.Bool
	sampleEvery atomic.Uint64
	seed        uint64
	epoch       time.Time // origin of the Chrome export's timestamps

	idSeq   atomic.Uint64 // span IDs (1-based; 0 = none)
	rootSeq atomic.Uint64 // sampling sequence, one per StartRoot call

	captureAllocs bool

	onFinish atomic.Pointer[func(SpanData)]

	ring *introspect.Ring[SpanData]
	pool sync.Pool
}

// New creates an enabled Tracer. Disable with SetEnabled(false).
func New(o Options) *Tracer {
	if o.BufferSize <= 0 {
		o.BufferSize = 4096
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 1
	}
	t := &Tracer{
		seed:          o.Seed,
		epoch:         time.Now(),
		captureAllocs: o.CaptureAllocs,
		ring:          introspect.NewRing[SpanData](o.BufferSize),
	}
	t.sampleEvery.Store(o.SampleEvery)
	t.pool.New = func() any { return new(Span) }
	t.enabled.Store(true)
	return t
}

// SetEnabled flips span creation on or off. Spans already started keep
// working; new roots return nil while disabled.
func (t *Tracer) SetEnabled(v bool) {
	if t != nil {
		t.enabled.Store(v)
	}
}

// Enabled reports whether StartRoot can return a span.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetOnFinish installs a hook invoked synchronously with every finished
// span's data (after it is stored in the ring). Pass nil to remove. The hook
// must be cheap and safe for concurrent use.
func (t *Tracer) SetOnFinish(fn func(SpanData)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.onFinish.Store(nil)
		return
	}
	t.onFinish.Store(&fn)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed hash
// used to turn (seed, sequence) into a deterministic sampling decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StartRoot starts a new trace. It returns nil when the tracer is disabled
// (one atomic load, zero allocations) or the root is not sampled; children
// of a nil span are nil, so the whole tree inherits the decision.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	seq := t.rootSeq.Add(1) - 1
	if n := t.sampleEvery.Load(); n > 1 && splitmix64(t.seed^seq)%n != 0 {
		return nil
	}
	id := t.idSeq.Add(1)
	return t.start(name, id, id, 0)
}

// RootSeq returns the number of StartRoot calls so far (sampled or not).
func (t *Tracer) RootSeq() uint64 {
	if t == nil {
		return 0
	}
	return t.rootSeq.Load()
}

func (t *Tracer) start(name string, traceID, spanID, parentID uint64) *Span {
	s := t.pool.Get().(*Span)
	s.t = t
	s.name = name
	s.traceID = traceID
	s.spanID = spanID
	s.parentID = parentID
	s.nattrs = 0
	s.extra = s.extra[:0]
	if t.captureAllocs {
		s.allocStart = heapAllocBytes()
	}
	s.start = time.Now()
	return s
}

// Spans returns the retained finished spans, oldest first.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// Finished returns the total number of spans ever finished; Dropped is how
// many of those the bounded ring has already overwritten.
func (t *Tracer) Finished() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Total()
}

// Dropped returns the number of finished spans the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Dropped()
}

// Reset discards all retained spans (IDs and the sampling sequence keep
// advancing; timestamps stay on the tracer's original epoch).
func (t *Tracer) Reset() {
	if t != nil {
		t.ring.Reset()
	}
}

func (t *Tracer) finish(d SpanData) {
	t.ring.Put(d)
	if fn := t.onFinish.Load(); fn != nil {
		(*fn)(d)
	}
}

// heapAllocBytes reads the cumulative heap allocation counter. The sample
// slice is pooled so the reading itself does not allocate.
var allocSamplePool = sync.Pool{New: func() any {
	s := make([]rm.Sample, 1)
	s[0].Name = "/gc/heap/allocs:bytes"
	return &s
}}

func heapAllocBytes() uint64 {
	sp := allocSamplePool.Get().(*[]rm.Sample)
	rm.Read(*sp)
	v := (*sp)[0].Value.Uint64()
	allocSamplePool.Put(sp)
	return v
}

// attrKind discriminates Attr's value.
type attrKind uint8

const (
	kindInt attrKind = iota
	kindStr
	kindBool
	kindFloat
)

// Attr is one span or event attribute: a key and an int64, string,
// float64, or bool value, stored without boxing — building one never
// allocates. Use Value for a generic view.
type Attr struct {
	Key  string
	kind attrKind
	num  uint64 // int64 bits, float64 bits, or 0/1 for bool
	str  string
}

// Int, Uint, Str, Float and Bool build typed attributes (Uint is stored as
// an int64).
func Int(k string, v int64) Attr   { return Attr{Key: k, kind: kindInt, num: uint64(v)} }
func Uint(k string, v uint64) Attr { return Int(k, int64(v)) }
func Str(k, v string) Attr         { return Attr{Key: k, kind: kindStr, str: v} }
func Float(k string, v float64) Attr {
	return Attr{Key: k, kind: kindFloat, num: math.Float64bits(v)}
}
func Bool(k string, v bool) Attr {
	a := Attr{Key: k, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Value returns the attribute's value as int64, string, float64, or bool.
func (a Attr) Value() any {
	switch a.kind {
	case kindStr:
		return a.str
	case kindBool:
		return a.num == 1
	case kindFloat:
		return math.Float64frombits(a.num)
	default:
		return int64(a.num)
	}
}

// inlineAttrs is the per-span inline attribute capacity; spans with more
// attributes spill into a heap slice.
const inlineAttrs = 6

// Span is one in-flight operation. All methods are nil-receiver safe: code
// instruments unconditionally and pays nothing when tracing is off.
type Span struct {
	t          *Tracer
	name       string
	traceID    uint64
	spanID     uint64
	parentID   uint64
	start      time.Time
	allocStart uint64
	attrs      [inlineAttrs]Attr
	nattrs     int
	extra      []Attr
}

// Child starts a sub-span. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(name, s.traceID, s.t.idSeq.Add(1), s.spanID)
}

// TraceID returns the span's trace (root) ID, 0 on nil.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SpanID returns the span's ID, 0 on nil.
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

func (s *Span) put(a Attr) {
	if s.nattrs < inlineAttrs {
		s.attrs[s.nattrs] = a
		s.nattrs++
		return
	}
	//lint:ignore hotalloc past the inline attributes only, and spans exist only while tracing is on
	s.extra = append(s.extra, a)
}

// SetInt attaches an integer attribute. Nil-safe.
func (s *Span) SetInt(key string, v int64) {
	if s != nil {
		s.put(Int(key, v))
	}
}

// SetUint attaches an unsigned attribute (stored as int64). Nil-safe.
func (s *Span) SetUint(key string, v uint64) {
	if s != nil {
		s.put(Uint(key, v))
	}
}

// SetStr attaches a string attribute. Nil-safe.
func (s *Span) SetStr(key, v string) {
	if s != nil {
		s.put(Str(key, v))
	}
}

// SetFloat attaches a float attribute. Nil-safe.
func (s *Span) SetFloat(key string, v float64) {
	if s != nil {
		s.put(Float(key, v))
	}
}

// SetBool attaches a boolean attribute. Nil-safe.
func (s *Span) SetBool(key string, v bool) {
	if s != nil {
		s.put(Bool(key, v))
	}
}

// End finishes the span: its data is copied into the tracer's ring and the
// span object is recycled. The span must not be used afterwards. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	d := SpanData{
		Name:     s.name,
		TraceID:  s.traceID,
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Start:    s.start,
		Duration: time.Since(s.start),
	}
	if t.captureAllocs {
		if end := heapAllocBytes(); end > s.allocStart {
			d.AllocBytes = end - s.allocStart
		}
	}
	if n := s.nattrs + len(s.extra); n > 0 {
		//lint:ignore hotalloc a finished span owns its attributes, and spans exist only while tracing is on
		d.Attrs = append(append(make([]Attr, 0, n), s.attrs[:s.nattrs]...), s.extra...)
	}
	s.t = nil
	s.extra = s.extra[:0]
	t.finish(d)
	t.pool.Put(s)
}

// SpanData is one finished span, or one event: a zero-duration root with no
// IDs (see Event).
type SpanData struct {
	Name     string
	TraceID  uint64 // root span's ID, shared by the whole tree
	SpanID   uint64
	ParentID uint64 // 0 for roots
	// Start is when the span began (wall clock plus the runtime's monotonic
	// reading, so spans of one process are mutually ordered); Duration is
	// its monotonic length.
	Start    time.Time
	Duration time.Duration
	// AllocBytes is the process-wide heap-allocation delta across the span
	// (0 unless Options.CaptureAllocs).
	AllocBytes uint64
	Attrs      []Attr
}

// Event builds a control-plane event record: a zero-duration root stamped
// now, carrying attrs.
func Event(name string, attrs ...Attr) SpanData {
	return SpanData{Name: name, Start: time.Now(), Attrs: attrs}
}

// Root reports whether the span is a trace root.
func (d SpanData) Root() bool { return d.ParentID == 0 }

// Attr returns the value of the named attribute, or nil.
func (d SpanData) Attr(key string) any {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}
