package main

import (
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"fishstore"
)

// The mixed workload runs the same scenario with its phases overlapped: on a
// fresh store, prefilled closed loop, one goroutine ingests open loop at a
// fixed rate while another runs the query mix closed loop, for a window of
// fixed length; the checkpoint → recover cycles follow once the window has
// closed. A round is one such window, so its rounds are as independent and as
// alike as the other workloads': every window starts from the same log and
// grows it by the same amount, whatever --seconds is.

// mixedWindow is how long one round's window stays open before it closes
// with the query pass in progress.
const mixedWindow = 3 * time.Second

// prepared is a store after set-up: registered and, for the mixed workload,
// prefilled with stream records [0, prefilled).
type prepared struct {
	st        *store
	sess      *fishstore.Session // mixed workload: the session that prefilled
	prefilled int
	lateAt    int
}

func (p *prepared) discard() {
	if p.sess != nil {
		p.sess.Close()
	}
	p.st.discard()
}

// prepare is the set-up of one store: Open and RegisterPSF, plus the prefill
// on the mixed workload (late PSF registered at 50% of it).
func (r *runner) prepare() (*prepared, error) {
	st, err := r.open()
	if err != nil {
		return nil, err
	}
	p := &prepared{st: st}
	if !r.w.mixed {
		return p, nil
	}
	p.prefilled = r.c.prefill()
	p.lateAt = p.prefilled / 2 / batchRecords * batchRecords
	p.sess = st.NewSession()
	var prefill ingestSamples
	r.ingest(st, p.sess, 0, p.prefilled, p.lateAt, &prefill)
	r.op(st.Flush(), "Flush")
	return p, nil
}

// openLoop ingests stream records from `from` on a fixed schedule until stop
// is set: batch i is due at begin + i×interval whether or not the store kept
// up, and its latency counts from when it was due. It returns the next stream
// record.
func (r *runner) openLoop(p *prepared, from int, stop *atomic.Bool, safeTail *atomic.Uint64, out *ingestSamples) int {
	batch := make([][]byte, batchRecords)
	interval := time.Duration(float64(batchRecords) / r.w.openLoopRate * float64(time.Second))
	begin := time.Now()
	k := from
	for i := 0; !stop.Load(); i++ {
		due := begin.Add(time.Duration(i) * interval)
		waitUntil(due)
		start := time.Now()
		bytes := r.c.fill(batch, k)
		out.bytes += bytes
		p.st.userBytes += bytes
		sp := r.tr.begin("Ingest", laneWrite)
		is, err := p.sess.Ingest(batch)
		sp.end()
		done := time.Now()
		safeTail.Store(p.st.TailAddress())
		r.check(err == nil && is.ParseErrors == 0 && is.Records == batchRecords,
			"Ingest batch at %d: err=%v parse_errors=%d records=%d", k, err, is.ParseErrors, is.Records)
		out.batchUs = append(out.batchUs, float64(done.Sub(due))/1e3)
		out.lateMs = append(out.lateMs, float64(start.Sub(due))/1e6)
		out.records += int64(is.Records)
		out.props += int64(is.Properties)
		k += batchRecords
	}
	out.wall = time.Since(begin)
	return k
}

// mixedRound is one round of the mixed workload. The query goroutine starts
// passes of the query mix until the window has been open for r.window, and
// the ingest goroutine keeps its schedule until the last pass has ended, so
// every sample of either side was taken beside the other.
func (r *runner) mixedRound() (roundResult, error) {
	runtime.GC() // as in round
	p, err := r.prepare()
	if err != nil {
		return roundResult{}, err
	}
	st := p.st
	pageSize := uint64(1) << r.w.options().PageBits
	recent := uint64(r.w.corpusMB) << 20 / 2
	halfEnd := st.TailAddress() // the prefill: half-indexed for the late PSF
	lt := newLayerTrace(r, st)
	ph0 := p.sess.Phases()

	var safeTail atomic.Uint64
	safeTail.Store(halfEnd)
	var stop atomic.Bool
	var in ingestSamples
	next := make(chan int, 1) // the ingest goroutine's single result
	// The prefill created the ingest session's parser; from here on only scans
	// create parser sessions.
	r.tr.parserSessionsOn(laneRead)
	go func() { next <- r.openLoop(p, p.prefilled, &stop, &safeTail, &in) }()

	var q querySamples
	wantLate, wantLateIx := count(r.o.late, 0, p.prefilled), count(r.o.late, p.lateAt, p.prefilled)
	for closes := time.Now().Add(r.window); time.Now().Before(closes); {
		to := safeTail.Load()
		from := uint64(0)
		if to > recent {
			from = (to - recent) &^ (pageSize - 1)
		}
		r.queries(st, ranges{
			recent:        fishstore.ScanOptions{From: from, To: to},
			half:          fishstore.ScanOptions{To: halfEnd},
			wantSelective: -1,
			wantLate:      wantLate,
			wantLateIx:    wantLateIx,
		}, false, &q)
	}
	stop.Store(true)
	streamEnd := <-next

	sp := r.tr.begin("Flush", laneWrite)
	t0 := time.Now()
	r.op(st.Flush(), "Flush")
	flushMs := float64(time.Since(t0)) / 1e6
	sp.end()
	lt.afterIngest(phasesSince(p.sess.Phases(), ph0), &in, flushMs)
	lt.afterQueries(&q)

	p.sess.Close()
	var d durability
	rec := r.durabilityCycles(st, streamEnd, &d)
	lt.afterRecovery(rec, &d)
	if rec != nil {
		rec.Close()
	}
	os.RemoveAll(st.dir)
	return roundResult{e2e: e2eOf(&in, &q, &d), layer: lt.metrics()}, nil
}

func phasesSince(now, then fishstore.PhaseStats) fishstore.PhaseStats {
	return fishstore.PhaseStats{
		Parse:   now.Parse - then.Parse,
		PSFEval: now.PSFEval - then.PSFEval,
		Memcpy:  now.Memcpy - then.Memcpy,
		Index:   now.Index - then.Index,
		Others:  now.Others - then.Others,
		Records: now.Records - then.Records,
	}
}

// waitUntil returns at t. time.Sleep alone overshoots by about a millisecond
// on the reference host, which is most of a batch interval, so the last
// stretch yields in a loop instead: the schedule holds, and goroutines with
// work to do (page flushes, the collector) still get the processor.
func waitUntil(t time.Time) {
	if wait := time.Until(t); wait > 3*time.Millisecond {
		time.Sleep(wait - 2*time.Millisecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
