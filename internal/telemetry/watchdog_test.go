package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestWatchdogBurnStates(t *testing.T) {
	col := New()
	w := NewWatchdog(col, SLO{IngestBatchP99: time.Millisecond, BreachBurnRate: 8}, nil)

	// 1000 fast ops, 0 breaches: burn 0, ok.
	for i := 0; i < 1000; i++ {
		col.RecordOp(OpIngestBatch, 100*time.Microsecond)
	}
	r := w.evaluate()
	if r.Status != StatusOK || r.SLOs[0].Burn != 0 {
		t.Fatalf("all-fast window: %+v", r)
	}

	// 2% of the next window over target: burn = 0.02/0.01 = 2 → degraded.
	for i := 0; i < 980; i++ {
		col.RecordOp(OpIngestBatch, 100*time.Microsecond)
	}
	for i := 0; i < 20; i++ {
		col.RecordOp(OpIngestBatch, 5*time.Millisecond)
	}
	r = w.evaluate()
	if r.Status != StatusDegraded {
		t.Fatalf("2%% breach window: %+v", r)
	}
	if b := r.SLOs[0].Burn; b < 1.9 || b > 2.1 {
		t.Fatalf("burn = %v, want ~2", b)
	}

	// 50% over target: burn 50 ≥ 8 → breach.
	for i := 0; i < 50; i++ {
		col.RecordOp(OpIngestBatch, 100*time.Microsecond)
		col.RecordOp(OpIngestBatch, 5*time.Millisecond)
	}
	r = w.evaluate()
	if r.Status != StatusBreach {
		t.Fatalf("50%% breach window: %+v", r)
	}

	// Idle window: burn resets to 0, ok.
	r = w.evaluate()
	if r.Status != StatusOK || r.SLOs[0].WindowOps != 0 {
		t.Fatalf("idle window: %+v", r)
	}
}

func TestWatchdogTicksAndReport(t *testing.T) {
	col := New()
	// The first tick's window holds every op recorded before Start; later
	// windows may be empty, so the breach is asserted on the first report.
	first := make(chan Report, 1)
	w := NewWatchdog(col, SLO{IngestBatchP99: time.Millisecond, Interval: 5 * time.Millisecond},
		func(r Report) {
			select {
			case first <- r:
			default:
			}
		})

	// Before Start, Report is the all-ok placeholder naming the objective.
	r := w.Report()
	if r.Status != StatusOK || len(r.SLOs) != 1 || r.SLOs[0].Name != "ingest_batch_p99" {
		t.Fatalf("pre-start report: %+v", r)
	}

	for i := 0; i < 100; i++ {
		col.RecordOp(OpIngestBatch, 10*time.Millisecond) // all over target
	}
	w.Start()
	select {
	case r = <-first:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never ticked")
	}
	w.Stop()
	if r.Status != StatusBreach || r.SLOs[0].WindowOps != 100 {
		t.Fatalf("report of the all-breach window: %+v", r)
	}
	if r.SLOs[0].Burn < 1 {
		t.Fatalf("burn of the all-breach window = %v, want >= 1", r.SLOs[0].Burn)
	}
	// Report and Burn serve the latest window, whichever tick it was.
	last := w.Report()
	if last.SLOs[0].Ops != 100 || w.Burn("ingest_batch_p99") != last.SLOs[0].Burn {
		t.Fatalf("latest report %+v, Burn() = %v", last, w.Burn("ingest_batch_p99"))
	}
}

func TestWatchdogStartStopIdempotent(t *testing.T) {
	col := New()
	w := NewWatchdog(col, SLO{IngestBatchP99: time.Millisecond, Interval: time.Millisecond}, nil)
	w.Stop() // stop before start: no-op
	w.Start()
	w.Start() // double start: one goroutine
	w.Stop()
	w.Stop()  // double stop: no panic
	w.Start() // restartable
	w.Stop()

	var nilW *Watchdog
	nilW.Start()
	nilW.Stop()
	nilW.Report()
}

// TestWatchdogConcurrentStartStop races Start/Stop from many goroutines
// against concurrent recording — the shape of Store.Close racing an
// in-flight watchdog.
func TestWatchdogConcurrentStartStop(t *testing.T) {
	col := New()
	w := NewWatchdog(col, SLO{IngestBatchP99: time.Millisecond, Interval: time.Millisecond}, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				col.RecordOp(OpIngestBatch, 2*time.Millisecond)
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				w.Start()
				w.Stop()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_ = w.Report()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	w.Stop()
}
