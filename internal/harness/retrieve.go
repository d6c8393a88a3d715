package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fishstore"
	"fishstore/internal/baselines"
	"fishstore/internal/datagen"
	"fishstore/internal/expr"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// retrievalStore holds a FishStore ingested onto a simulated SSD with a
// small memory budget, so subset retrieval is storage-bound.
type retrievalStore struct {
	store *fishstore.Store
	dev   *storage.SimSSD
	ids   map[string]psf.ID
	to    uint64 // scan range end (tail after ingestion); scans start at the log begin
}

// buildRetrievalStore ingests cfg.DataMB of workload w with the given extra
// PSFs registered up front.
func (cfg Config) buildRetrievalStore(w Workload, memPages int, defs map[string]psf.Definition) (*retrievalStore, error) {
	dev := NewSimSSD()
	opts := fishstore.Options{Device: dev, PageBits: 20, MemPages: memPages, Parser: w.Parser}
	s, err := fishstore.Open(opts)
	if err != nil {
		return nil, err
	}
	rs := &retrievalStore{store: s, dev: dev, ids: map[string]psf.ID{}}
	names := make([]string, 0, len(defs))
	for name := range defs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		id, _, err := s.RegisterPSF(defs[name])
		if err != nil {
			s.Close()
			return nil, err
		}
		rs.ids[name] = id
	}

	sess := s.NewSession()
	gen := w.NewGen(99)
	remaining := cfg.DataMB << 20
	for remaining > 0 {
		batch := datagen.Batch(gen, 64)
		st, err := sess.Ingest(batch)
		if err != nil {
			sess.Close()
			s.Close()
			return nil, err
		}
		remaining -= int(st.Bytes)
	}
	sess.Close()
	rs.to = s.TailAddress()
	return rs, nil
}

// timeQuery runs one scan and returns combined cost: wall-clock compute
// time plus the simulated I/O time charged by the SimSSD (the paper
// measures wall time on a real SSD; our device charges its I/O to a virtual
// clock instead, keeping results machine-independent).
func (rs *retrievalStore) timeQuery(prop fishstore.Property, mode fishstore.ScanMode) (time.Duration, fishstore.ScanStats, error) {
	rs.dev.ResetClock()
	start := time.Now()
	st, err := rs.store.Scan(prop, fishstore.ScanOptions{To: rs.to, Mode: mode},
		func(fishstore.Record) bool { return true })
	elapsed := time.Since(start) + rs.dev.SimTime()
	return elapsed, st, err
}

// fig16Queries are the per-dataset queries of §8.4.
func fig16Queries() map[string]psf.Definition {
	return map[string]psf.Definition{
		"github":  psf.MustPredicate("push", `type == "PushEvent"`),                            // ~50%
		"twitter": psf.MustPredicate("ja", `user.lang == "ja" && user.followers_count > 3000`), // ~1%
		"yelp":    psf.MustPredicate("good", `stars > 3 && useful > 5`),                        // ~2%
	}
}

// RunFig16a compares full scan and index scans (with and without adaptive
// prefetching) plus RDB-Mison++, per dataset.
func RunFig16a(cfg Config) error {
	memPages := 4
	row(cfg.Out, "## Fig 16(a): subset retrieval time (simulated SSD; seconds)")
	row(cfg.Out, "dataset\tmatched\tindex+AP\tindex-noAP\tfull-scan\tRDB-Mison++")
	for _, ds := range []string{"github", "twitter", "yelp"} {
		if cfg.Quick && ds == "twitter" {
			continue
		}
		w := Table1()[ds]
		q := fig16Queries()[ds]
		rs, err := cfg.buildRetrievalStore(w, memPages, map[string]psf.Definition{"q": q})
		if err != nil {
			return err
		}
		prop := fishstore.PropertyBool(rs.ids["q"], true)

		tAP, stAP, err := rs.timeQuery(prop, fishstore.ScanForceIndex)
		if err != nil {
			return err
		}
		tNo, _, err := rs.timeQuery(prop, fishstore.ScanIndexNoPrefetch)
		if err != nil {
			return err
		}
		tFull, _, err := rs.timeQuery(prop, fishstore.ScanForceFull)
		if err != nil {
			return err
		}
		rs.store.Close()

		tPP, matchedPP, err := cfg.timeMisonPP(w, q)
		if err != nil {
			return err
		}
		_ = matchedPP
		row(cfg.Out, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f",
			ds, stAP.Matched, tAP.Seconds(), tNo.Seconds(), tFull.Seconds(), tPP.Seconds())
	}
	row(cfg.Out, "")
	return nil
}

// timeMisonPP ingests the workload into RDB-Mison++ on its own SimSSD and
// times the retrieval of def's true-property.
func (cfg Config) timeMisonPP(w Workload, def psf.Definition) (time.Duration, int64, error) {
	dev := NewSimSSD()
	sys, err := baselines.NewRDBMisonPP(baselines.RDBMisonPPOptions{
		PageBits: 20, MemPages: 4, Device: dev, LSM: cfg.lsmOpts(nil),
	}, w.Parser, []psf.Definition{def})
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()
	ing, err := sys.NewIngestor()
	if err != nil {
		return 0, 0, err
	}
	gen := w.NewGen(99)
	remaining := cfg.DataMB << 20
	for remaining > 0 {
		batch := datagen.Batch(gen, 64)
		if err := ing.Ingest(batch); err != nil {
			return 0, 0, err
		}
		for _, r := range batch {
			remaining -= len(r)
		}
	}
	ing.Close()

	dev.ResetClock()
	start := time.Now()
	matched, err := sys.Retrieve(0, expr.BoolVal(true), func([]byte) bool { return true })
	elapsed := time.Since(start) + dev.SimTime()
	return elapsed, matched, err
}

// RunFig16b sweeps query selectivity on Github (predicates over the uniform
// actor.id field) and reports the crossover between index and full scans.
func RunFig16b(cfg Config) error {
	sels := []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1.0}
	if cfg.Quick {
		sels = []float64{0.001, 0.1, 1.0}
	}
	w := Table1()["github"]
	defs := map[string]psf.Definition{}
	for _, s := range sels {
		cut := 100 + int(5000*s)
		defs[selName(s)] = psf.MustPredicate(selName(s), fmt.Sprintf("actor.id < %d", cut))
	}
	rs, err := cfg.buildRetrievalStore(w, 4, defs)
	if err != nil {
		return err
	}
	defer rs.store.Close()

	row(cfg.Out, "## Fig 16(b): retrieval time vs selectivity (github; seconds)")
	row(cfg.Out, "selectivity\tmatched\tindex+AP\tindex-noAP\tfull-scan")
	for _, s := range sels {
		prop := fishstore.PropertyBool(rs.ids[selName(s)], true)
		tAP, st, err := rs.timeQuery(prop, fishstore.ScanForceIndex)
		if err != nil {
			return err
		}
		tNo, _, err := rs.timeQuery(prop, fishstore.ScanIndexNoPrefetch)
		if err != nil {
			return err
		}
		tFull, _, err := rs.timeQuery(prop, fishstore.ScanForceFull)
		if err != nil {
			return err
		}
		row(cfg.Out, "%.4f\t%d\t%.3f\t%.3f\t%.3f", s, st.Matched, tAP.Seconds(), tNo.Seconds(), tFull.Seconds())
	}
	row(cfg.Out, "")
	return nil
}

func selName(s float64) string { return fmt.Sprintf("sel-%.4f", s) }

// RunFig16c sweeps the memory budget (circular buffer pages) for the
// non-selective Github query.
func RunFig16c(cfg Config) error {
	budgets := []int{2, 4, 8, 16, 32}
	if cfg.Quick {
		budgets = []int{2, 8}
	}
	w := Table1()["github"]
	q := fig16Queries()["github"]
	row(cfg.Out, "## Fig 16(c): retrieval time vs memory budget (github; seconds)")
	row(cfg.Out, "memoryMB\tindex+AP\tindex-noAP\tfull-scan")
	for _, mp := range budgets {
		rs, err := cfg.buildRetrievalStore(w, mp, map[string]psf.Definition{"q": q})
		if err != nil {
			return err
		}
		prop := fishstore.PropertyBool(rs.ids["q"], true)
		tAP, _, err := rs.timeQuery(prop, fishstore.ScanForceIndex)
		if err != nil {
			return err
		}
		tNo, _, err := rs.timeQuery(prop, fishstore.ScanIndexNoPrefetch)
		if err != nil {
			return err
		}
		tFull, _, err := rs.timeQuery(prop, fishstore.ScanForceFull)
		if err != nil {
			return err
		}
		rs.store.Close()
		row(cfg.Out, "%d\t%.3f\t%.3f\t%.3f", mp, tAP.Seconds(), tNo.Seconds(), tFull.Seconds())
	}
	row(cfg.Out, "")
	return nil
}

// RunFig16d runs the mixed ingest/point-lookup workload: each worker flips
// a biased coin per operation between ingesting one record and looking up a
// random actor.id; reported in Mops/s.
func RunFig16d(cfg Config) error {
	percents := []int{0, 25, 50, 75, 90, 100}
	if cfg.Quick {
		percents = []int{0, 50, 100}
	}
	w := Table1()["github"]
	threads := 4
	if cfg.Quick {
		threads = 2
	}
	opsPerWorker := 20000
	if cfg.Quick {
		opsPerWorker = 3000
	}

	row(cfg.Out, "## Fig 16(d): ingest/lookup mixed workload (github, %d threads)", threads)
	row(cfg.Out, "scan%%\tFishStore(Kops/s)")
	for _, pct := range percents {
		opts := fishstore.Options{Parser: w.Parser, PageBits: 20, MemPages: 16, Device: storage.NewMem()}
		s, err := fishstore.Open(opts)
		if err != nil {
			return err
		}
		id, _, err := s.RegisterPSF(psf.Projection("actor.id"))
		if err != nil {
			return err
		}
		// Warm up with some data so lookups hit.
		warm := s.NewSession()
		if _, err := warm.Ingest(datagen.Batch(w.NewGen(5), 2000)); err != nil {
			return err
		}
		warm.Close()

		var totalOps atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		var firstErr atomic.Value
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				sess := s.NewSession()
				defer sess.Close()
				gen := w.NewGen(int64(100 + t))
				rng := rand.New(rand.NewSource(int64(t)))
				for i := 0; i < opsPerWorker; i++ {
					if rng.Intn(100) < pct {
						actor := float64(100 + rng.Intn(5000))
						if _, err := s.Lookup(fishstore.PropertyNumber(id, actor),
							func(fishstore.Record) bool { return false }); err != nil {
							firstErr.CompareAndSwap(nil, err)
							return
						}
					} else {
						if _, err := sess.Ingest([][]byte{gen.Next()}); err != nil {
							firstErr.CompareAndSwap(nil, err)
							return
						}
					}
					totalOps.Add(1)
				}
			}(t)
		}
		wg.Wait()
		elapsed := time.Since(start)
		s.Close()
		if err, _ := firstErr.Load().(error); err != nil {
			return err
		}
		row(cfg.Out, "%d\t%.1f", pct, float64(totalOps.Load())/1000/elapsed.Seconds())
	}
	row(cfg.Out, "")
	return nil
}

// RunFig16e reproduces the recurring-query experiment: an hourly "count
// opened issues over the past hour" against a live ingestion session; the
// PSF is registered after the second attempt, and the sliding window
// becomes progressively index-covered.
func RunFig16e(cfg Config) error {
	w := Table1()["github"]
	const attempts = 10
	const windowChunks = 4
	chunkBytes := cfg.DataMB << 20 / 16

	dev := NewSimSSD()
	s, err := fishstore.Open(fishstore.Options{Parser: w.Parser, PageBits: 20, MemPages: 4, Device: dev})
	if err != nil {
		return err
	}
	defer s.Close()
	def := psf.MustPredicate("opened", `type == "IssuesEvent" && payload.action == "opened"`)

	sess := s.NewSession()
	defer sess.Close()
	gen := w.NewGen(31)
	var bounds []uint64 // chunk start addresses
	var id psf.ID

	row(cfg.Out, "## Fig 16(e): recurring query (PSF registered after attempt 2)")
	row(cfg.Out, "attempt\ttime(s)\tmatched\tindexed")
	for a := 0; a < attempts; a++ {
		bounds = append(bounds, s.TailAddress())
		remaining := chunkBytes
		for remaining > 0 {
			batch := datagen.Batch(gen, 32)
			st, err := sess.Ingest(batch)
			if err != nil {
				return err
			}
			remaining -= int(st.Bytes)
		}
		if a == 2 {
			id, _, err = s.RegisterPSF(def)
			if err != nil {
				return err
			}
		}
		// Query the sliding window [attempt-windowChunks+1 .. now).
		fromIdx := a - windowChunks + 1
		if fromIdx < 0 {
			fromIdx = 0
		}
		from := bounds[fromIdx]
		to := s.TailAddress()

		dev.ResetClock()
		start := time.Now()
		var matched int64
		indexed := "full-scan"
		if a >= 2 {
			st, err := s.Scan(fishstore.PropertyBool(id, true),
				fishstore.ScanOptions{From: from, To: to},
				func(fishstore.Record) bool { matched++; return true })
			if err != nil {
				return err
			}
			full := int64(0)
			for _, seg := range st.Plan {
				if !seg.Indexed {
					full += int64(seg.To - seg.From)
				}
			}
			indexed = fmt.Sprintf("%.0f%% indexed", 100*(1-float64(full)/float64(to-from)))
		} else {
			// Before registration the query is a raw full scan with its own
			// ad-hoc evaluator.
			tmpID, _, err := s.RegisterPSF(psf.MustPredicate(fmt.Sprintf("tmp-%d", a), def.Predicate.Source()))
			if err != nil {
				return err
			}
			if _, err := s.Scan(fishstore.PropertyBool(tmpID, true),
				fishstore.ScanOptions{From: from, To: to, Mode: fishstore.ScanForceFull},
				func(fishstore.Record) bool { matched++; return true }); err != nil {
				return err
			}
			if _, err := s.DeregisterPSF(tmpID); err != nil {
				return err
			}
		}
		elapsed := time.Since(start) + dev.SimTime()
		row(cfg.Out, "%d\t%.3f\t%d\t%s", a, elapsed.Seconds(), matched, indexed)
	}
	row(cfg.Out, "")
	return nil
}

// RunFig18b measures CSV subset retrieval (Appendix G).
func RunFig18b(cfg Config) error {
	w := YelpCSVWorkload()
	defs := map[string]psf.Definition{
		"yelp1": psf.MustPredicate("yelp1", `useful > 10`),
		"yelp2": psf.MustPredicate("yelp2", `stars > 3 && useful > 5`),
		"yelp3": psf.Projection("business_id"),
	}
	rs, err := cfg.buildRetrievalStore(w, 4, defs)
	if err != nil {
		return err
	}
	defer rs.store.Close()

	// The highly selective point query targets a business that is known to
	// exist: the first record's (same generator seed as the ingested data).
	probe, err := w.Parser.NewSession([]string{"business_id"})
	if err != nil {
		return err
	}
	first, err := probe.Parse(w.NewGen(99).Next())
	if err != nil {
		return err
	}
	// The value views the probe's payload: keep a copy.
	business := strings.Clone(first.Lookup("business_id").Str)

	row(cfg.Out, "## Fig 18(b): CSV subset retrieval (yelp; seconds)")
	row(cfg.Out, "query\tmatched\tindex+AP\tindex-noAP\tfull-scan")
	queries := []struct {
		name string
		prop fishstore.Property
	}{
		{"Yelp1 useful>10", fishstore.PropertyBool(rs.ids["yelp1"], true)},
		{"Yelp2 stars&useful", fishstore.PropertyBool(rs.ids["yelp2"], true)},
		{"Yelp3 one business", fishstore.PropertyString(rs.ids["yelp3"], business)},
	}
	for _, q := range queries {
		tAP, st, err := rs.timeQuery(q.prop, fishstore.ScanForceIndex)
		if err != nil {
			return err
		}
		tNo, _, err := rs.timeQuery(q.prop, fishstore.ScanIndexNoPrefetch)
		if err != nil {
			return err
		}
		tFull, _, err := rs.timeQuery(q.prop, fishstore.ScanForceFull)
		if err != nil {
			return err
		}
		row(cfg.Out, "%s\t%d\t%.4f\t%.4f\t%.4f", q.name, st.Matched, tAP.Seconds(), tNo.Seconds(), tFull.Seconds())
	}
	row(cfg.Out, "")
	return nil
}

// RunFig19 profiles hash-link gap sizes along the address space for the
// sparse (opened issues) and dense (push events) Github chains.
func RunFig19(cfg Config) error {
	w := Table1()["github"]
	defs := map[string]psf.Definition{
		"opened": psf.MustPredicate("opened", `type == "IssuesEvent" && payload.action == "opened"`),
		"push":   psf.MustPredicate("push", `type == "PushEvent"`),
	}
	rs, err := cfg.buildRetrievalStore(w, 4, defs)
	if err != nil {
		return err
	}
	defer rs.store.Close()

	profile := storage.DefaultSSDProfile()
	phi := (profile.SyscallCost.Seconds() + profile.RandLatency.Seconds()) * profile.SeqBandwidth

	row(cfg.Out, "## Fig 19: hash-link gap distribution (github)")
	row(cfg.Out, "chain\thops\tmin\tp50\tp90\tmax\tbelow-threshold%%\t(threshold=%.0fB)", phi)
	for _, name := range []string{"opened", "push"} {
		hops, err := rs.store.ChainGapProfile(fishstore.PropertyBool(rs.ids[name], true), 0)
		if err != nil {
			return err
		}
		var gaps []uint64
		below := 0
		for _, h := range hops[1:] {
			gaps = append(gaps, h.Gap)
			if float64(h.Gap) <= phi {
				below++
			}
		}
		if len(gaps) == 0 {
			row(cfg.Out, "%s\t0\t-\t-\t-\t-\t-", name)
			continue
		}
		sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
		pct := func(p float64) uint64 { return gaps[int(p*float64(len(gaps)-1))] }
		row(cfg.Out, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f",
			name, len(hops), gaps[0], pct(0.5), pct(0.9), gaps[len(gaps)-1],
			100*float64(below)/float64(len(gaps)))
	}
	row(cfg.Out, "")
	return nil
}
