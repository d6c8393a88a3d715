package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycleBasics(t *testing.T) {
	tr := New(Options{})
	root := tr.StartRoot("op")
	root.SetInt("n", 42)
	root.SetStr("kind", "test")
	root.SetBool("ok", true)
	root.SetFloat("ratio", 0.5)
	child := root.Child("op.step")
	child.SetUint("addr", 64)
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Children end first, so the ring holds [child, root].
	c, r := spans[0], spans[1]
	if c.Name != "op.step" || r.Name != "op" {
		t.Fatalf("span order: %q, %q", c.Name, r.Name)
	}
	if !r.Root() || c.Root() {
		t.Fatalf("root flags wrong: root=%v child=%v", r.Root(), c.Root())
	}
	if c.ParentID != r.SpanID {
		t.Fatalf("child parent %d != root id %d", c.ParentID, r.SpanID)
	}
	if c.TraceID != r.TraceID || r.TraceID != r.SpanID {
		t.Fatalf("trace ids: child %d root %d (root span %d)", c.TraceID, r.TraceID, r.SpanID)
	}
	if c.Start.Before(r.Start) {
		t.Fatalf("child started (%v) before root (%v)", c.Start, r.Start)
	}
	if cEnd, rEnd := c.Start.Add(c.Duration), r.Start.Add(r.Duration); cEnd.After(rEnd) {
		t.Fatalf("child ended (%v) after root (%v)", cEnd, rEnd)
	}
	if got := r.Attr("n"); got != int64(42) {
		t.Fatalf("attr n = %v", got)
	}
	if got := r.Attr("kind"); got != "test" {
		t.Fatalf("attr kind = %v", got)
	}
	if got := r.Attr("ok"); got != true {
		t.Fatalf("attr ok = %v", got)
	}
	if got := r.Attr("ratio"); got != 0.5 {
		t.Fatalf("attr ratio = %v", got)
	}
	if got := r.Attr("missing"); got != nil {
		t.Fatalf("missing attr = %v", got)
	}
}

func TestAttrOverflowBeyondInlineCapacity(t *testing.T) {
	tr := New(Options{})
	sp := tr.StartRoot("many")
	for i := 0; i < inlineAttrs+3; i++ {
		sp.SetInt(fmt.Sprintf("k%d", i), int64(i))
	}
	sp.End()
	d := tr.Spans()[0]
	if len(d.Attrs) != inlineAttrs+3 {
		t.Fatalf("got %d attrs, want %d", len(d.Attrs), inlineAttrs+3)
	}
	for i := 0; i < inlineAttrs+3; i++ {
		if got := d.Attr(fmt.Sprintf("k%d", i)); got != int64(i) {
			t.Fatalf("k%d = %v", i, got)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// The whole span API must be callable on nil.
	sp.SetInt("a", 1)
	sp.SetStr("b", "c")
	sp.SetBool("d", true)
	sp.SetFloat("e", 1.5)
	sp.SetUint("f", 2)
	child := sp.Child("y")
	if child != nil {
		t.Fatal("nil span produced a child")
	}
	child.End()
	sp.End()
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer spans: %v", got)
	}
	tr.SetEnabled(true)
	tr.Reset()
	tr.SetOnFinish(func(SpanData) {})
	if tr.Finished() != 0 || tr.Dropped() != 0 || tr.RootSeq() != 0 {
		t.Fatal("nil tracer counters non-zero")
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	tr := New(Options{})
	tr.SetEnabled(false)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartRoot("op")
		c := sp.Child("step")
		c.SetInt("n", 1)
		c.End()
		sp.SetStr("s", "v")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

// TestSamplingDeterminism: same seed and rate → identical decisions over the
// root sequence; the decisions actually thin the stream; children inherit.
func TestSamplingDeterminism(t *testing.T) {
	const n, every = 4096, 8
	decide := func(seed uint64) []bool {
		tr := New(Options{SampleEvery: every, Seed: seed, BufferSize: n})
		out := make([]bool, n)
		for i := range out {
			sp := tr.StartRoot("r")
			out[i] = sp != nil
			if sp != nil {
				c := sp.Child("c")
				c.End()
			}
			sp.End()
		}
		return out
	}
	a, b := decide(7), decide(7)
	sampled := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 diverges at root %d", i)
		}
		if a[i] {
			sampled++
		}
	}
	if sampled == 0 || sampled == n {
		t.Fatalf("sampling degenerate: %d of %d sampled", sampled, n)
	}
	// Roughly 1/every of roots sampled (hash is uniform; allow 2x slack).
	if sampled < n/(every*2) || sampled > n*2/every {
		t.Fatalf("sampled %d of %d, expected ~%d", sampled, n, n/every)
	}
	c := decide(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds made identical decisions")
	}
}

// TestSpanTreeAcrossGoroutines builds a three-level span tree with children
// created and ended on separate goroutines, then checks ID integrity: every
// child's parent exists, trace IDs propagate, and span IDs are unique.
// Run with -race this is the concurrency half of the lifecycle coverage.
func TestSpanTreeAcrossGoroutines(t *testing.T) {
	const workers, grandchildren = 8, 4
	tr := New(Options{BufferSize: 1024, CaptureAllocs: true})
	root := tr.StartRoot("root")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := root.Child("worker")
			c.SetInt("worker", int64(w))
			for g := 0; g < grandchildren; g++ {
				gc := c.Child("task")
				gc.SetInt("task", int64(g))
				_ = make([]byte, 1024) // visible in the alloc delta
				gc.End()
			}
			c.End()
		}(w)
	}
	wg.Wait()
	root.End()

	spans := tr.Spans()
	want := 1 + workers + workers*grandchildren
	if len(spans) != want {
		t.Fatalf("got %d spans, want %d", len(spans), want)
	}
	byID := make(map[uint64]SpanData, len(spans))
	for _, d := range spans {
		if _, dup := byID[d.SpanID]; dup {
			t.Fatalf("duplicate span id %d", d.SpanID)
		}
		byID[d.SpanID] = d
	}
	rootData := byID[root.SpanID()]
	for _, d := range spans {
		if d.TraceID != rootData.TraceID {
			t.Fatalf("span %d trace %d != root trace %d", d.SpanID, d.TraceID, rootData.TraceID)
		}
		if d.Root() {
			continue
		}
		p, ok := byID[d.ParentID]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", d.SpanID, d.ParentID)
		}
		switch d.Name {
		case "worker":
			if p.Name != "root" {
				t.Fatalf("worker's parent is %q", p.Name)
			}
		case "task":
			if p.Name != "worker" {
				t.Fatalf("task's parent is %q", p.Name)
			}
		}
		if d.Start.Before(p.Start) {
			t.Fatalf("span %d starts before its parent", d.SpanID)
		}
	}
}

func TestRingBoundedAndOrdered(t *testing.T) {
	tr := New(Options{BufferSize: 8})
	for i := 0; i < 20; i++ {
		sp := tr.StartRoot("r")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("ring holds %d, want 8", len(spans))
	}
	for i, d := range spans {
		if got := d.Attr("i"); got != int64(12+i) {
			t.Fatalf("slot %d holds i=%v, want %d", i, got, 12+i)
		}
	}
	if tr.Finished() != 20 || tr.Dropped() != 12 {
		t.Fatalf("finished %d dropped %d", tr.Finished(), tr.Dropped())
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Finished() != 0 {
		t.Fatal("Reset left spans behind")
	}
}

func TestOnFinishHookOrdering(t *testing.T) {
	tr := New(Options{})
	var got []string
	tr.SetOnFinish(func(d SpanData) { got = append(got, d.Name) })
	a := tr.StartRoot("a")
	a.End()
	b := tr.StartRoot("b")
	c := b.Child("b.child")
	c.End()
	b.End()
	want := []string{"a", "b.child", "b"}
	if len(got) != len(want) {
		t.Fatalf("hook saw %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hook order %v, want %v", got, want)
		}
	}
	tr.SetOnFinish(nil)
	d := tr.StartRoot("d")
	d.End()
	if len(got) != 3 {
		t.Fatal("hook fired after removal")
	}
}

func TestChromeExportShape(t *testing.T) {
	tr := New(Options{CaptureAllocs: true})
	root := tr.StartRoot("ingest.batch")
	root.SetInt("records", 3)
	child := root.Child("ingest.parse")
	time.Sleep(time.Microsecond)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(out.TraceEvents))
	}
	// Sorted by start: root first.
	r, c := out.TraceEvents[0], out.TraceEvents[1]
	if r.Name != "ingest.batch" || c.Name != "ingest.parse" {
		t.Fatalf("event order: %q, %q", r.Name, c.Name)
	}
	for _, e := range out.TraceEvents {
		if e.Ph != "X" || e.Cat != "fishstore" || e.Pid != 1 {
			t.Fatalf("bad event envelope: %+v", e)
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("negative time: %+v", e)
		}
	}
	if r.Tid != c.Tid {
		t.Fatal("trace split across tids")
	}
	if c.Args["parent_id"].(float64) != r.Args["span_id"].(float64) {
		t.Fatal("child's parent_id does not match root's span_id")
	}
	if r.Args["records"].(float64) != 3 {
		t.Fatalf("root args: %v", r.Args)
	}
	if c.Ts < r.Ts || c.Ts+c.Dur > r.Ts+r.Dur+0.001 {
		t.Fatalf("child [%f,%f] not nested in root [%f,%f]", c.Ts, c.Ts+c.Dur, r.Ts, r.Ts+r.Dur)
	}
}

// TestEventJSONLines: an event is a zero-duration root record, and events
// and root spans share one JSON-lines rendering — ts, event, the typed
// attributes, plus trace_id and duration_ns for spans.
func TestEventJSONLines(t *testing.T) {
	ev := Event("checkpoint.end", Int("tail", 128), Str("where", "x"), Float("seconds", 0.5), Bool("ok", true))
	if !ev.Root() || ev.Duration != 0 || ev.TraceID != 0 || ev.Start.IsZero() {
		t.Fatalf("event is not a zero-duration root: %+v", ev)
	}
	tr := New(Options{})
	sp := tr.StartRoot("scan")
	sp.SetInt("matched", 3)
	sp.End()

	var buf bytes.Buffer
	sink := JSONLines(&buf)
	sink(ev)
	sink(tr.Spans()[0])
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %q", buf.String())
	}
	var e, s map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if e["event"] != "checkpoint.end" || e["tail"] != float64(128) || e["where"] != "x" ||
		e["seconds"] != 0.5 || e["ok"] != true || e["ts"] == nil || e["trace_id"] != nil {
		t.Fatalf("event line = %v", e)
	}
	if s["event"] != "scan" || s["matched"] != float64(3) || s["trace_id"] == nil || s["duration_ns"] == nil {
		t.Fatalf("span line = %v", s)
	}
}
