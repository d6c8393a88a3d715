package fishstore

import (
	"sync"
	"testing"
	"time"

	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
)

// recordingSink is a concurrency-safe TraceSink that keeps every record.
type recordingSink struct {
	mu  sync.Mutex
	got []trace.SpanData
}

func (r *recordingSink) emit(d trace.SpanData) {
	r.mu.Lock()
	r.got = append(r.got, d)
	r.mu.Unlock()
}

func (r *recordingSink) named(name string) []trace.SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []trace.SpanData
	for _, d := range r.got {
		if d.Name == name {
			out = append(out, d)
		}
	}
	return out
}

// TestTraceSinkEvents checks structured events fire for PSF transitions,
// checkpoints, and slow operations.
func TestTraceSinkEvents(t *testing.T) {
	sink := &recordingSink{}
	s := openTestStore(t, Options{
		Metrics:         metrics.NewRegistry(),
		TraceSink:       sink.emit,
		SlowOpThreshold: time.Nanosecond, // everything is "slow"
		Device:          storage.NewMem(),
	})
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	if _, err := sess.Ingest([][]byte{genEvent(1, "PushEvent", "spark")}); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"psf.prepare", "psf.pending", "psf.rest",
		"checkpoint.begin", "checkpoint.end", "ingest.slow_batch"} {
		if len(sink.named(name)) == 0 {
			t.Errorf("no %q event emitted", name)
		}
	}
	if end := sink.named("checkpoint.end"); len(end) != 1 || end[0].Attr("bytes") == nil {
		t.Errorf("checkpoint.end = %+v, want one event with a bytes attribute", end)
	}
	if slow := sink.named("ingest.slow_batch"); len(slow) == 1 && slow[0].Attr("records") != int64(1) {
		t.Errorf("ingest.slow_batch attrs = %+v", slow[0].Attrs)
	}
}

// TestFlightRecorderSeesInternalEvents pins that the event stream belongs to
// the store, not the metrics registry: registering a PSF records the epoch
// drain and the Fig 7 state transitions whether metrics are on or off.
func TestFlightRecorderSeesInternalEvents(t *testing.T) {
	for _, c := range []struct {
		name string
		reg  *metrics.Registry
	}{{"metrics-off", nil}, {"metrics-on", metrics.NewRegistry()}} {
		t.Run(c.name, func(t *testing.T) {
			s := openTestStore(t, Options{Metrics: c.reg})
			if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, d := range s.metrics.flight.Snapshot() {
				seen[d.Name] = true
			}
			for _, want := range []string{"epoch.drain", "psf.prepare", "psf.pending", "psf.rest"} {
				if !seen[want] {
					t.Errorf("flight recorder lacks %s; has %v", want, seen)
				}
			}
		})
	}
}

// TestFlightRecorderTeesAndDumps: the flight recorder keeps the newest
// flightEvents records while the TraceSink sees every one, and
// /debug/fishstore/flight renders them oldest first as flat JSON.
func TestFlightRecorderTeesAndDumps(t *testing.T) {
	sink := &recordingSink{}
	s := openTestStore(t, Options{TraceSink: sink.emit})
	const emitted = flightEvents + 44
	for i := 0; i < emitted; i++ {
		s.metrics.event("test.event", trace.Int("i", int64(i)))
	}
	if got := len(sink.named("test.event")); got != emitted {
		t.Fatalf("sink saw %d events, want %d", got, emitted)
	}
	if got := len(s.metrics.flight.Snapshot()); got != flightEvents {
		t.Fatalf("recorder retained %d events, want %d", got, flightEvents)
	}

	snap := s.flightSnapshot()
	if snap.Capacity != flightEvents || snap.Total != emitted || snap.Dropped != 44 || len(snap.Events) != flightEvents {
		t.Fatalf("snapshot = cap %d total %d dropped %d events %d", snap.Capacity, snap.Total, snap.Dropped, len(snap.Events))
	}
	if first := snap.Events[0]; first["event"] != "test.event" || first["i"] != int64(44) || first["ts"] == nil {
		t.Fatalf("snapshot not oldest-first flat JSON: %v", first)
	}
}
