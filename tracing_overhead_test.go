package fishstore

import (
	"testing"

	"fishstore/internal/metrics"
	"fishstore/internal/psf"
	"fishstore/internal/trace"
)

// TestTracingDisabledZeroAllocsPerRecord checks that machinery which is armed
// but idle costs no allocations: per-Ingest allocation counts must be
// identical for a default store, a store with a live metrics registry, and
// a store with an attached but disabled tracer. Page sizing keeps the whole
// measured run inside one in-memory page so no flush or eviction allocates
// mid-measurement in any store.
func TestTracingDisabledZeroAllocsPerRecord(t *testing.T) {
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = genEvent(i, "PushEvent", "spark")
	}
	const runs = 50

	measure := func(opts Options) float64 {
		opts.PageBits, opts.MemPages = 21, 4 // 8MB of memory: no flush during the run
		s := openTestStore(t, opts)
		defer s.Close()
		if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
			t.Fatal(err)
		}
		sess := s.NewSession()
		defer sess.Close()
		return testing.AllocsPerRun(runs, func() {
			if _, err := sess.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		})
	}

	disabled := trace.New(trace.Options{})
	disabled.SetEnabled(false)
	base := measure(Options{})
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"metrics on", Options{Metrics: metrics.NewRegistry()}},
		{"tracer attached, disabled", Options{Tracer: disabled}},
	} {
		got := measure(c.opts)
		t.Logf("allocs per %d-record batch: default %.2f, %s %.2f", len(batch), base, c.name, got)
		if delta := got - base; delta > 0.01 {
			t.Errorf("%s adds %.2f allocs per %d-record batch, want 0", c.name, delta, len(batch))
		}
	}
}
