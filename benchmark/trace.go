package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fishstore/internal/parser"
	"fishstore/internal/storage"
)

// The traced run records spans from outside the store: around every public
// call the scenario makes, and inside the parser.Factory and storage.Device
// the benchmark injects through Options. Spans stay in memory and are written
// once, at exit, as Chrome trace-event JSON. End-to-end metrics never come
// from a traced run.

// lane is the side of the store a span belongs to. The mixed workload has one
// goroutine per lane open at the same time, so "the current span" is per lane.
type lane int

const (
	laneWrite  lane = iota // Ingest, Flush, Checkpoint
	laneRead               // Lookup, Scan, Recover
	laneDevice             // storage reads and writes, parented to a lane's open span
	lanes
)

type span struct {
	name       string
	id, parent int64 // parent 0 = root
	req        int64 // id of the public call this span belongs to
	lane       lane
	start, end int64 // ns since the tracer's origin
	count      int64 // operations folded into this span (parser calls, bytes)
}

type tracer struct {
	origin time.Time
	nextID atomic.Int64
	open   [lanes]atomic.Int64 // id of the lane's open public-call span

	mu    sync.Mutex
	spans []span

	// sessionLane is the lane the store's next parser session belongs to. The
	// scenario sets it before each phase (parserSessionsOn): the store creates
	// an ingest session's parser inside Ingest and a scan's parsers inside
	// Scan, and the two only overlap in the mixed window, where no PSF is
	// registered, so the ingest session keeps the parser it got during prefill
	// and every new one is a scan's.
	sessionLane atomic.Int32
	// parse accumulates the injected parser's work per lane; a public call
	// folds its lane's share into one child span when it ends.
	parse [2]parseAcc
}

type parseAcc struct{ ns, calls, first atomic.Int64 }

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// parserSessionsOn says which lane the parser sessions the store creates from
// now on belong to.
func (t *tracer) parserSessionsOn(l lane) {
	if t != nil {
		t.sessionLane.Store(int32(l))
	}
}

// call is an open public-call span.
type call struct {
	t     *tracer
	id    int64
	name  string
	lane  lane
	start int64
}

// begin opens a span around one public call. A nil tracer returns a call
// whose end is a no-op, so the untraced run pays one nil check.
func (t *tracer) begin(name string, l lane) call {
	if t == nil {
		return call{}
	}
	c := call{t: t, id: t.nextID.Add(1), name: name, lane: l, start: t.now()}
	t.open[l].Store(c.id)
	return c
}

func (c call) end() {
	t := c.t
	if t == nil {
		return
	}
	end := t.now()
	t.open[c.lane].Store(0)
	acc := &t.parse[c.lane]
	ns, calls, first := acc.ns.Swap(0), acc.calls.Swap(0), acc.first.Swap(0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: c.name, id: c.id, req: c.id, lane: c.lane, start: c.start, end: end})
	if calls > 0 {
		t.spans = append(t.spans, span{name: "parser.parse", id: t.nextID.Add(1), parent: c.id, req: c.id,
			lane: c.lane, start: first, end: first + ns, count: calls})
	}
	t.mu.Unlock()
}

// device records one storage operation under the open span of the lane that
// causes it: reads under the read lane, writes under the write lane.
func (t *tracer) device(name string, prefer lane, start, end int64, bytes int) {
	parent := t.open[prefer].Load()
	if parent == 0 {
		parent = t.open[1-prefer].Load()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: t.nextID.Add(1), parent: parent, req: parent,
		lane: laneDevice, start: start, end: end, count: int64(bytes)})
	t.mu.Unlock()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) (ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name {
			ns += s.end - s.start
		}
	}
	return ns
}

// childTotal sums the durations of the spans named child whose parent is a
// span named parent.
func (t *tracer) childTotal(parent, child string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := make(map[int64]bool)
	for i := range t.spans {
		if t.spans[i].name == parent {
			parents[t.spans[i].id] = true
		}
	}
	var ns int64
	for i := range t.spans {
		if s := &t.spans[i]; s.name == child && parents[s.parent] {
			ns += s.end - s.start
		}
	}
	return ns
}

// drain returns the recorded spans and forgets them; a traced run calls it
// after each round, once the round's totals were read.
func (t *tracer) drain() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): one complete ("X") event per span, one thread per lane.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	var buf bytes.Buffer
	buf.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	enc := json.NewEncoder(&buf)
	for i, s := range spans {
		if i > 0 {
			buf.WriteByte(',')
		}
		args := map[string]int64{"id": s.id, "parent": s.parent, "request": s.req}
		if s.count > 0 {
			args["count"] = s.count
		}
		if err := enc.Encode(event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: int(s.lane) + 1, Args: args}); err != nil {
			return err
		}
	}
	buf.WriteString("]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// tracedFactory is the parser.Factory the traced run passes in
// Options.Parser: it times every Parse of the wrapped parser.
type tracedFactory struct {
	inner parser.Factory
	t     *tracer
}

func (f *tracedFactory) Name() string { return f.inner.Name() }

func (f *tracedFactory) NewSession(fields []string) (parser.Session, error) {
	s, err := f.inner.NewSession(fields)
	if err != nil {
		return nil, err
	}
	return &tracedSession{inner: s, t: f.t, acc: &f.t.parse[f.t.sessionLane.Load()]}, nil
}

type tracedSession struct {
	inner parser.Session
	t     *tracer
	acc   *parseAcc
}

func (s *tracedSession) Parse(payload []byte) (*parser.Parsed, error) {
	start := s.t.now()
	p, err := s.inner.Parse(payload)
	s.acc.ns.Add(s.t.now() - start)
	if s.acc.calls.Add(1) == 1 {
		s.acc.first.Store(start)
	}
	return p, err
}

// countingDevice is the storage.Device the traced run passes in
// Options.Device: it counts and times every operation that reaches storage
// and records a span for each. Unwrap keeps the store's own probing of the
// device beneath (Profiler, Syncer) working.
type countingDevice struct {
	inner storage.Device
	t     *tracer

	reads, readBytes, writes, writeBytes, busyNs atomic.Int64
}

type deviceCounts struct{ reads, readBytes, writes, writeBytes, busyNs int64 }

func (d *countingDevice) counts() deviceCounts {
	return deviceCounts{d.reads.Load(), d.readBytes.Load(), d.writes.Load(), d.writeBytes.Load(), d.busyNs.Load()}
}

func (a deviceCounts) add(b deviceCounts) deviceCounts {
	return deviceCounts{a.reads + b.reads, a.readBytes + b.readBytes, a.writes + b.writes,
		a.writeBytes + b.writeBytes, a.busyNs + b.busyNs}
}

func (a deviceCounts) sub(b deviceCounts) deviceCounts {
	return deviceCounts{a.reads - b.reads, a.readBytes - b.readBytes, a.writes - b.writes,
		a.writeBytes - b.writeBytes, a.busyNs - b.busyNs}
}

func (d *countingDevice) Unwrap() storage.Device { return d.inner }
func (d *countingDevice) Close() error           { return d.inner.Close() }

func (d *countingDevice) ReadAt(p []byte, off int64) (int, error) {
	start := d.t.now()
	n, err := d.inner.ReadAt(p, off)
	end := d.t.now()
	d.reads.Add(1)
	d.readBytes.Add(int64(len(p)))
	d.busyNs.Add(end - start)
	d.t.device("storage.read", laneRead, start, end, len(p))
	return n, err
}

func (d *countingDevice) WriteAt(p []byte, off int64) (int, error) {
	start := d.t.now()
	n, err := d.inner.WriteAt(p, off)
	end := d.t.now()
	d.writes.Add(1)
	d.writeBytes.Add(int64(len(p)))
	d.busyNs.Add(end - start)
	d.t.device("storage.write", laneWrite, start, end, len(p))
	return n, err
}
