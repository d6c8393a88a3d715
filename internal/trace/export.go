package trace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// ChromeEvent is one complete ("ph":"X") event in the Chrome trace-event
// JSON format, the array-of-events dialect Perfetto and chrome://tracing
// load directly. Timestamps and durations are microseconds (float, so
// sub-microsecond spans keep their nanosecond precision).
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeEvent converts one finished span, timed from the tracer's creation
// at epoch. The trace ID becomes the tid, so each trace renders as its own
// track with the root on top and children nested below it by time
// containment.
func chromeEvent(d SpanData, epoch time.Time) ChromeEvent {
	args := map[string]any{
		"span_id":   d.SpanID,
		"parent_id": d.ParentID,
	}
	if d.AllocBytes > 0 {
		args["alloc_bytes"] = d.AllocBytes
	}
	for _, a := range d.Attrs {
		args[a.Key] = a.Value()
	}
	return ChromeEvent{
		Name: d.Name,
		Cat:  "fishstore",
		Ph:   "X",
		Ts:   float64(d.Start.Sub(epoch).Nanoseconds()) / 1e3,
		Dur:  float64(d.Duration.Nanoseconds()) / 1e3,
		Pid:  1,
		Tid:  d.TraceID,
		Args: args,
	}
}

// ChromeTrace converts the retained finished spans, ordered by start time
// (ties broken by span ID, so parents precede the children they started).
func (t *Tracer) ChromeTrace() ChromeTrace {
	spans := t.Spans()
	events := make([]ChromeEvent, 0, len(spans))
	for _, d := range spans {
		events = append(events, chromeEvent(d, t.epoch))
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		return events[i].Args["span_id"].(uint64) < events[j].Args["span_id"].(uint64)
	})
	return ChromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"}
}

// WriteChrome writes the retained spans as Chrome trace-event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.ChromeTrace())
}

// JSON renders d as one flat object — ts, event, then trace_id and
// duration_ns for spans, then the attributes — the shape of a flight-dump
// line and of every JSONLines record.
func (d SpanData) JSON() map[string]any {
	m := make(map[string]any, len(d.Attrs)+4)
	m["ts"] = d.Start.UTC().Format("2006-01-02T15:04:05.000000Z07:00")
	m["event"] = d.Name
	if d.TraceID != 0 {
		m["trace_id"] = d.TraceID
		m["duration_ns"] = d.Duration.Nanoseconds()
	}
	for _, a := range d.Attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// JSONLines returns a record sink writing each record to w as one JSON line
// (see JSON); it is safe for concurrent use, and lines never interleave. A
// record with an unmarshalable attribute (a NaN float) is skipped.
func JSONLines(w io.Writer) func(SpanData) {
	var mu sync.Mutex
	return func(d SpanData) {
		raw, err := json.Marshal(d.JSON())
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		_, _ = w.Write(append(raw, '\n')) // a sink has no caller to report a write error to
	}
}
