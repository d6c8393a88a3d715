package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	// Get-or-create returns the same handle.
	if r.Counter("test_total", "a counter") != c {
		t.Fatal("second registration returned a different counter")
	}
	if r.Counter("test_total", "", L("k", "v")) == c {
		t.Fatal("different label set returned the same counter")
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	c.Inc()
	g.Set(5)
	g.Add(1)
	h.Observe(9)
	h.SetThreshold(1)
	h.Merge(&Histogram{})
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Breaches() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles returned non-zero values")
	}
	var r *Registry
	r.AttachHistogram(h, "x", "", ScaleNone)
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
}

func TestDisabledRegistry(t *testing.T) {
	r := NewDisabled()
	if r.Counter("a_total", "") != nil || r.Gauge("b", "") != nil || r.Histogram("c", "", ScaleNone) != nil {
		t.Fatal("disabled registry returned live handles")
	}
	r.GaugeFunc("d", "", func() float64 { return 1 })
	if len(r.Snapshot().Families) != 0 {
		t.Fatal("disabled registry produced a snapshot")
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, c := range []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11}, {1<<62 + 1, 63}} {
		if got := bucketOf(c.v); got != c.want {
			t.Fatalf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
		if c.v > 0 && (c.v > BucketLe(c.want) || c.v <= BucketLe(c.want-1)) {
			t.Fatalf("%d outside bucket %d's (%d, %d]", c.v, c.want, BucketLe(c.want-1), BucketLe(c.want))
		}
	}

	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", ScaleNanosToSeconds)
	h.Observe(1)    // le=1ns
	h.Observe(1000) // le=1023ns
	h.Observe(3000) // le=4095ns
	if h.Count() != 3 || h.Sum() != 4001 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	m, ok := r.Snapshot().Find("lat_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if m.Count != 3 {
		t.Fatalf("snapshot count = %d", m.Count)
	}
	if want := 4001e-9; math.Abs(m.Sum-want) > 1e-15 {
		t.Fatalf("snapshot sum = %g, want %g", m.Sum, want)
	}
	// Buckets are cumulative and end at +Inf.
	if len(m.Buckets) != HistogramBuckets {
		t.Fatalf("%d buckets exported, want %d", len(m.Buckets), HistogramBuckets)
	}
	last := m.Buckets[len(m.Buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.Count != 3 {
		t.Fatalf("last bucket = %+v", last)
	}
	prev := uint64(0)
	for _, b := range m.Buckets {
		if b.Count < prev {
			t.Fatal("buckets not cumulative")
		}
		prev = b.Count
	}
	// The 1000ns observation must be counted at le = 1023e-9 s.
	if b := m.Buckets[10]; math.Abs(b.UpperBound-1023e-9) > 1e-18 || b.Count != 2 {
		t.Fatalf("le=1023ns bucket = %+v, want count 2", b)
	}
}

// TestAttachHistogramByReference: an attached histogram is exported as the
// caller's object (later observations show without re-registration), and
// several attached under one name export their merge.
func TestAttachHistogramByReference(t *testing.T) {
	r := NewRegistry()
	var a, b Histogram
	r.AttachHistogram(&a, "op_seconds", "", ScaleNanosToSeconds, L("kind", "x"))
	r.AttachHistogram(&b, "op_seconds", "", ScaleNanosToSeconds, L("kind", "x"))
	a.Observe(10)
	b.Observe(20)
	b.Observe(30)
	m, ok := r.Snapshot().Find("op_seconds", L("kind", "x"))
	if !ok || m.Count != 3 || m.Buckets[len(m.Buckets)-1].Count != 3 {
		t.Fatalf("attached histograms exported %+v, want the merge of 3 samples", m)
	}
	if math.Abs(m.Sum-60e-9) > 1e-18 {
		t.Fatalf("sum = %g, want 60ns", m.Sum)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 40.0
	r.GaugeFunc("dyn", "", func() float64 { return v })
	// First registration wins.
	r.GaugeFunc("dyn", "", func() float64 { return -1 })
	v = 42
	if got := r.Snapshot().Value("dyn"); got != 42 {
		t.Fatalf("gauge func = %g, want 42", got)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_reqs_total", "Total requests.", L("kind", "read")).Add(7)
	r.Gauge("app_depth", "Queue depth.").Set(3)
	r.Histogram("app_lat_seconds", "Latency.", ScaleNanosToSeconds, L("op", "scan")).Observe(1500)

	var buf bytes.Buffer
	if err := WriteText(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE app_reqs_total counter",
		`app_reqs_total{kind="read"} 7`,
		"# TYPE app_depth gauge",
		"app_depth 3",
		"# TYPE app_lat_seconds histogram",
		`app_lat_seconds_bucket{op="scan",le="+Inf"} 1`,
		`app_lat_seconds_count{op="scan"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every sample line is "name value" or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") != 1 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "").Inc()
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(res.Body)
	res.Body.Close()
	if !strings.Contains(body.String(), "h_total 1") {
		t.Fatalf("/metrics missing sample:\n%s", body)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	res, err = srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.NewDecoder(res.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	res.Body.Close()
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "")
	h := r.Histogram("ch", "", ScaleNone)
	g := r.Gauge("cg", "")
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i%1000 + 1))
				g.Set(int64(i))
				if i%100 == 0 {
					// Concurrent registration and snapshotting must be safe.
					r.Counter("cc_total", "")
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Load() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Load(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	m, _ := r.Snapshot().Find("ch")
	if m.Buckets[len(m.Buckets)-1].Count != workers*per {
		t.Fatal("cumulative bucket total mismatch")
	}
}

// TestPrometheusHistogramCumulative pins the Prometheus histogram
// convention: _bucket{le="..."} series are cumulative (each bucket counts
// all observations <= its bound), monotonically non-decreasing, and the
// +Inf bucket equals _count. The test parses the rendered text format so a
// regression in either the snapshot or the renderer fails it.
func TestPrometheusHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cum_bytes", "sizes", ScaleNone)
	// Bucket i holds the integers [2^(i-1), 2^i − 1], so le = 2^i − 1 is
	// exact: (le=0):1, (le=1):1, (le=3):2, (le=7):2, (le=15):1. The sample at
	// exactly 2^3 lands under le=15, the first bound >= 8, not under le=7.
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := WriteText(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	type sample struct {
		le    string
		count uint64
	}
	var buckets []sample
	var count uint64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed line %q", line)
		}
		switch {
		case strings.HasPrefix(name, "cum_bytes_bucket{le="):
			le := strings.TrimSuffix(strings.TrimPrefix(name, `cum_bytes_bucket{le="`), `"}`)
			var c uint64
			if _, err := fmt.Sscanf(val, "%d", &c); err != nil {
				t.Fatalf("bucket count %q: %v", val, err)
			}
			buckets = append(buckets, sample{le: le, count: c})
		case name == "cum_bytes_count":
			fmt.Sscanf(val, "%d", &count)
		}
	}
	if len(buckets) == 0 {
		t.Fatalf("no _bucket series rendered:\n%s", buf.String())
	}
	// Cumulative: monotone non-decreasing, ending at +Inf == _count.
	var prev uint64
	for _, b := range buckets {
		if b.count < prev {
			t.Fatalf("bucket le=%s count %d < previous %d (non-cumulative export)", b.le, b.count, prev)
		}
		prev = b.count
	}
	last := buckets[len(buckets)-1]
	if last.le != "+Inf" {
		t.Fatalf("last bucket le=%q, want +Inf", last.le)
	}
	if last.count != count || count != 7 {
		t.Fatalf("+Inf bucket %d, _count %d, want both 7", last.count, count)
	}
	// Exact cumulative values at the low boundaries.
	wantCum := map[string]uint64{"0": 1, "1": 2, "3": 4, "7": 6, "15": 7}
	seen := 0
	for _, b := range buckets {
		if want, ok := wantCum[b.le]; ok {
			seen++
			if b.count != want {
				t.Fatalf("bucket le=%s count %d, want cumulative %d", b.le, b.count, want)
			}
		}
	}
	if seen != len(wantCum) {
		t.Fatalf("missing low bounds; rendered %+v", buckets[:6])
	}
}

// TestDebugEndpoints exercises RegisterDebug through the mux: a registered
// name serves JSON, the bare prefix lists endpoints, unknown names 404 with
// the available list, and registration is first-wins.
func TestDebugEndpoints(t *testing.T) {
	r := NewRegistry()
	r.RegisterDebug("probe", func() any { return map[string]int{"value": 42} })
	r.RegisterDebug("probe", func() any { return map[string]int{"value": 7} }) // loses: first wins
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	get := func(path string) (int, map[string]any) {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: not JSON: %v", path, err)
		}
		return res.StatusCode, m
	}

	code, m := get("/debug/fishstore/probe")
	if code != 200 || m["value"] != float64(42) {
		t.Fatalf("probe endpoint: code %d body %v", code, m)
	}
	code, m = get("/debug/fishstore/")
	if code != 200 {
		t.Fatalf("listing: code %d", code)
	}
	if eps, _ := m["endpoints"].([]any); len(eps) != 1 || eps[0] != "probe" {
		t.Fatalf("listing = %v", m)
	}
	code, m = get("/debug/fishstore/nope")
	if code != 404 || m["error"] == nil {
		t.Fatalf("unknown endpoint: code %d body %v", code, m)
	}

	// Registration after the mux is built is still served (request-time
	// dispatch: fishstore-cli serve builds the mux before Open registers).
	r.RegisterDebug("late", func() any { return []int{1, 2, 3} })
	res, err := srv.Client().Get(srv.URL + "/debug/fishstore/late")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("late endpoint: code %d", res.StatusCode)
	}
}
