package main

import (
	"runtime"
	"time"

	"fishstore"
	"fishstore/internal/expr"
	"fishstore/internal/hashtable"
	"fishstore/internal/parser"
	"fishstore/internal/parser/pjson"
	"fishstore/internal/psf"
)

// layerTrace turns what a traced round observed from outside the store — the
// injected parser and device, span totals, the store's read-only stats
// surfaces — into the per-layer metrics. A nil layerTrace (untraced run) does
// nothing.
type layerTrace struct {
	r  *runner
	st *store
	m  map[string]float64

	// What the store and its device had counted when the trace began (after
	// the prefill on the mixed workload) and when the query phase began.
	dev0, devIngest deviceCounts
	sim0            int64
	cache0          fishstore.CacheSnapshot
	user0           int64
}

func newLayerTrace(r *runner, st *store) *layerTrace {
	if r.tr == nil {
		return nil
	}
	lt := &layerTrace{r: r, st: st, m: map[string]float64{},
		dev0: st.dev.counted.counts(), cache0: st.CacheStats(), user0: st.userBytes}
	if st.dev.sim != nil {
		lt.sim0 = st.dev.sim.Stats().SimTimeNanos
	}
	return lt
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// afterIngest reads the ingest side: ph is the store's own phase split for the
// records in `in`, the parser time comes from the injected factory's spans.
func (lt *layerTrace) afterIngest(ph fishstore.PhaseStats, in *ingestSamples, flushMs float64) {
	if lt == nil {
		return
	}
	t, m := lt.r.tr, lt.m
	recs, props := float64(in.records), float64(in.props)
	parseNs := float64(t.childTotal("Ingest", "parser.parse"))
	ingestNs := t.total("Ingest")
	m["parser.parse_ns_per_rec"] = ratio(parseNs, recs)
	m["psf.eval_ns_per_rec"] = ratio(float64(ph.PSFEval), recs)
	m["psf.props_per_rec"] = ratio(props, recs)
	m["session.batch_p99_us"] = quantile(in.batchUs, 0.99)
	m["session.allocs_per_rec"] = ratio(float64(in.mallocs), recs)
	m["session.self_ns_per_rec"] = ratio(float64(ingestNs)-parseNs-float64(ph.PSFEval+ph.Memcpy+ph.Index), recs)
	m["session.late_p99_ms"] = quantile(in.lateMs, 0.99)
	m["hlog.alloc_copy_ns_per_rec"] = ratio(float64(ph.Memcpy), recs)
	m["hlog.flush_tail_ms"] = flushMs
	m["hashtable.link_ns_per_prop"] = ratio(float64(ph.Index), props)
	m["hashtable.overflow_buckets"] = float64(lt.st.Stats().TableStats.OverflowBuckets)
	if !lt.r.w.mixed {
		// Phase after phase, the query phase's device traffic starts here; the
		// mixed workload reads beside its writes for the whole window.
		lt.devIngest = lt.st.dev.counted.counts()
		lt.cache0 = lt.st.CacheStats()
	} else {
		lt.devIngest = lt.dev0
	}
}

func sum(ss []scanSample, f func(*scanSample) float64) (v float64) {
	for i := range ss {
		v += f(&ss[i])
	}
	return v
}

func scanMs(s *scanSample) float64 { return s.ms }

func medianOf(ss []scanSample, f func(*scanSample) float64) float64 {
	v := make([]float64, len(ss))
	for i := range ss {
		v[i] = f(&ss[i])
	}
	return median(v)
}

// afterQueries reads the read side: ScanStats per scan, the store's cache
// counters across the query phase, and the device operations the queries
// caused.
func (lt *layerTrace) afterQueries(q *querySamples) {
	if lt == nil {
		return
	}
	m := lt.m
	dev := lt.st.dev.counted.counts().sub(lt.devIngest)
	m["storage.reads"] = float64(dev.reads)
	m["storage.read_bytes"] = float64(dev.readBytes)

	hops := sum(q.index, func(s *scanSample) float64 { return float64(s.stats.IndexHops) })
	visited := func(s *scanSample) float64 { return float64(s.stats.Visited) }
	m["scan.index_ns_per_hop"] = ratio(sum(q.index, scanMs)*1e6, hops)
	m["scan.full_ns_per_visited"] = ratio(sum(q.full, scanMs)*1e6, sum(q.full, visited))
	m["scan.reeval_ns_per_visited"] = ratio(sum(q.reeval, scanMs)*1e6, sum(q.reeval, visited))
	m["scan.visited_per_matched"] = ratio(sum(q.index, visited), sum(q.index, func(s *scanSample) float64 { return float64(s.matched) }))
	m["scan.allocs_per_scan"] = ratio(float64(q.adaptiveMallocs), float64(len(q.adaptive)))
	m["scan.adaptive_vs_reeval"] = ratio(medianOf(q.adaptive, scanMs), medianOf(q.reeval, scanMs))
	m["scan.index_first_ms"] = medianOf(q.index, func(s *scanSample) float64 { return s.firstMs })
	m["scan.full_parallel2_speedup"] = ratio(medianOf(q.full, scanMs), medianOf(q.parallel2, scanMs))
	decisions := lt.st.ScanDecisions().Decisions
	for i := len(decisions) - 1; i >= 0; i-- {
		if decisions[i].Mode == fishstore.ScanAuto.String() {
			m["scan.adaptive_indexed_fraction"] = decisions[i].IndexedFraction
			break
		}
	}
	m["prefetch.hit_ratio"] = ratio(sum(q.index, func(s *scanSample) float64 { return float64(s.stats.PrefetchHits) }), hops)
	m["prefetch.read_bytes_per_matched_byte"] = ratio(
		sum(q.index, func(s *scanSample) float64 { return float64(s.devReadBytes) }),
		sum(q.index, func(s *scanSample) float64 { return float64(s.matchedBytes) }))

	c, c0 := lt.st.CacheStats(), lt.cache0
	hits, misses := float64(c.PageCache.Hits-c0.PageCache.Hits), float64(c.PageCache.Misses-c0.PageCache.Misses)
	m["pagecache.hit_ratio"] = ratio(hits, hits+misses)
	m["pagecache.evictions"] = float64(c.PageCache.Evictions - c0.PageCache.Evictions)
	m["summaries.skipped_page_ratio"] = ratio(float64(c.Summaries.Skips-c0.Summaries.Skips), float64(c.Summaries.Probes-c0.Summaries.Probes))
	hh, hm := float64(c.HotChains.Hits-c0.HotChains.Hits), float64(c.HotChains.Misses-c0.HotChains.Misses)
	m["hotchain.hit_ratio"] = ratio(hh, hh+hm)
}

// afterRecovery reads the device totals over every open of the log (rec is
// the last, still open) and what checkpoint and recovery moved.
func (lt *layerTrace) afterRecovery(rec *store, d *durability) {
	if lt == nil {
		return
	}
	m := lt.m
	dev, simNs, userBytes := d.closed, d.closedSimNs, lt.st.userBytes
	if rec != nil {
		dev = dev.add(rec.dev.counted.counts())
		if s := rec.dev.sim; s != nil {
			simNs += s.Stats().SimTimeNanos
		}
		userBytes = rec.userBytes
	}
	dev = dev.sub(lt.dev0)
	m["storage.writes"] = float64(dev.writes)
	m["storage.write_bytes_per_user_byte"] = ratio(float64(dev.writeBytes), float64(userBytes-lt.user0))
	m["storage.busy_ms"] = float64(dev.busyNs) / 1e6
	m["storage.sim_ms"] = float64(simNs-lt.sim0) / 1e6
	m["checkpoint.bytes"] = float64(d.checkpointBytes)
	m["recover.replayed_records"] = float64(d.replayed)
}

func (lt *layerTrace) metrics() map[string]float64 {
	if lt == nil {
		return nil
	}
	return lt.m
}

// microLayers measures three layers directly, outside any store, over the
// corpus slab: the partial parser, PSF evaluation, and the hash table's
// FindOrCreate. These are the numbers an optimisation of one layer moves
// first; the in-store numbers above say whether it carried through.
func microLayers(d *dataset, c *corpus) (map[string]float64, error) {
	defs := append(append([]psf.Definition{}, d.base...), d.late)
	var fields []string
	seen := map[string]bool{}
	for _, def := range defs {
		for _, f := range def.Fields {
			if !seen[f] {
				seen[f] = true
				fields = append(fields, f)
			}
		}
	}
	sess, err := pjson.New().NewSession(fields)
	if err != nil {
		return nil, err
	}
	n := c.records()
	if n > 20000 {
		n = 20000
	}
	m := map[string]float64{}

	// pass parses the first n records, hands each to fn, and returns how many
	// objects the whole pass allocated.
	pass := func(fn func(p *parser.Parsed)) (float64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			p, err := sess.Parse(c.rec(i))
			if err != nil {
				return 0, err
			}
			fn(p)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), nil
	}
	if _, err := pass(func(*parser.Parsed) {}); err != nil { // warms the session's buffers
		return nil, err
	}
	parseAllocs, err := pass(func(*parser.Parsed) {})
	if err != nil {
		return nil, err
	}
	evalAllocs, err := pass(func(p *parser.Parsed) {
		for i := range defs {
			defs[i].Evaluate(p)
		}
	})
	if err != nil {
		return nil, err
	}
	m["parser.allocs_per_rec"] = parseAllocs / float64(n)
	m["psf.allocs_per_rec"] = (evalAllocs - parseAllocs) / float64(n)

	hashes := make([]uint64, 0, n*len(defs))
	if _, err := pass(func(p *parser.Parsed) {
		for i := range defs {
			if v := defs[i].Evaluate(p); v.Kind != expr.KindMissing {
				hashes = append(hashes, psf.PropertyHash(psf.ID(i), v))
			}
		}
	}); err != nil {
		return nil, err
	}
	table := hashtable.New(1<<16, 1<<14)
	t0 := time.Now()
	for _, h := range hashes {
		if _, err := table.FindOrCreate(h); err != nil {
			return nil, err
		}
	}
	m["hashtable.find_or_create_ns"] = float64(time.Since(t0)) / float64(len(hashes))
	return m, nil
}
