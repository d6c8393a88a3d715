package main

import (
	"encoding/json"

	"fishstore"
	"fishstore/internal/datagen"
	"fishstore/internal/expr"
	"fishstore/internal/psf"
)

// This file is the single declaration of what the benchmark measures: the
// end-to-end metrics with their bounds, the per-layer metrics with the
// end-to-end metric each should move, and the workloads. BENCHMARK.json at
// the repository root is `-print-spec` of these tables (the smoke test fails
// when the two drift apart).

// runSeconds is how long one run measures when -seconds is not given; it is
// BENCHMARK.json's run_seconds.
const runSeconds = 25

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists what a user of the store sees. Bound is the share of the
// parent's median by which the metric may worsen before a change counts as
// a regression; README.md records the observed spreads they were set from.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_rec_s", "records/s", "higher", 0.25},
	{"ingest_mb_s", "MB/s", "higher", 0.25},
	{"ingest_batch_p50_us", "us", "lower", 0.25},
	{"lookup_p50_us", "us", "lower", 0.25},
	{"scan_index_p50_ms", "ms", "lower", 0.25},
	{"scan_full_p50_ms", "ms", "lower", 0.25},
	{"scan_reeval_p50_ms", "ms", "lower", 0.25},
	{"scan_adaptive_p50_ms", "ms", "lower", 0.25},
	{"checkpoint_ms", "ms", "lower", 0.25},
	{"recover_ms", "ms", "lower", 0.25},
	{"space_amp", "B/B", "lower", 0.01},
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names the end-to-end metrics this layer metric should move
	// (README.md adds on which workload). Not part of BENCHMARK.json.
	Moves string `json:"-"`
}

// perLayer lists the traced run's metrics, one group per module of the store.
var perLayer = []layerMetric{
	{"parser.parse_ns_per_rec", "ns", "lower", "ingest_rec_s, scan_reeval_p50_ms"},
	{"parser.allocs_per_rec", "count", "lower", "ingest_rec_s, scan_reeval_p50_ms"},
	{"psf.eval_ns_per_rec", "ns", "lower", "ingest_rec_s, scan_reeval_p50_ms"},
	{"psf.allocs_per_rec", "count", "lower", "ingest_rec_s"},
	{"psf.props_per_rec", "count", "lower", "ingest_rec_s, space_amp"},
	{"session.batch_p99_us", "us", "lower", "ingest_batch_p50_us"},
	{"session.allocs_per_rec", "count", "lower", "ingest_rec_s"},
	{"session.self_ns_per_rec", "ns", "lower", "ingest_rec_s, ingest_batch_p50_us"},
	{"session.late_p99_ms", "ms", "lower", "ingest_batch_p50_us (mixed_rw only)"},
	{"hlog.alloc_copy_ns_per_rec", "ns", "lower", "ingest_mb_s"},
	{"hlog.flush_tail_ms", "ms", "lower", "checkpoint_ms"},
	{"hashtable.link_ns_per_prop", "ns", "lower", "ingest_rec_s"},
	{"hashtable.find_or_create_ns", "ns", "lower", "ingest_rec_s, lookup_p50_us"},
	{"hashtable.overflow_buckets", "count", "lower", "ingest_rec_s, checkpoint_ms"},
	{"storage.writes", "count", "lower", "ingest_mb_s, checkpoint_ms"},
	{"storage.write_bytes_per_user_byte", "B/B", "lower", "ingest_mb_s, space_amp"},
	{"storage.reads", "count", "lower", "scan_*, lookup_p50_us"},
	{"storage.read_bytes", "B", "lower", "scan_*"},
	{"storage.busy_ms", "ms", "lower", "ingest_mb_s, scan_*, checkpoint_ms"},
	{"storage.sim_ms", "ms", "lower", "scan_* (virtual SSD clock)"},
	{"scan.index_ns_per_hop", "ns", "lower", "scan_index_p50_ms"},
	{"scan.full_ns_per_visited", "ns", "lower", "scan_full_p50_ms"},
	{"scan.reeval_ns_per_visited", "ns", "lower", "scan_reeval_p50_ms"},
	{"scan.visited_per_matched", "ratio", "lower", "scan_index_p50_ms"},
	{"scan.allocs_per_scan", "count", "lower", "scan_adaptive_p50_ms"},
	{"scan.adaptive_indexed_fraction", "ratio", "higher", "scan_adaptive_p50_ms"},
	{"scan.adaptive_vs_reeval", "ratio", "lower", "scan_adaptive_p50_ms"},
	{"scan.index_first_ms", "ms", "lower", "scan_index_p50_ms, lookup_p50_us"},
	{"scan.full_parallel2_speedup", "ratio", "higher", "scan_full_p50_ms"},
	{"prefetch.hit_ratio", "ratio", "higher", "scan_index_p50_ms, scan_adaptive_p50_ms"},
	{"prefetch.read_bytes_per_matched_byte", "B/B", "lower", "scan_index_p50_ms"},
	{"pagecache.hit_ratio", "ratio", "higher", "scan_full_p50_ms, scan_index_p50_ms"},
	{"pagecache.evictions", "count", "lower", "scan_full_p50_ms"},
	{"summaries.skipped_page_ratio", "ratio", "higher", "scan_full_p50_ms"},
	{"hotchain.hit_ratio", "ratio", "higher", "scan_index_p50_ms"},
	{"checkpoint.bytes", "B", "lower", "checkpoint_ms, recover_ms"},
	{"recover.replayed_records", "count", "lower", "recover_ms"},
	{"obs.trace_overhead_pct", "%", "lower", "validity of the traced run"},
}

// dataset is a record generator with the PSFs and queries run against it.
type dataset struct {
	gen func(seed int64) datagen.Generator
	// base are the Table-1 PSFs registered before ingest; late is registered
	// at 50% of the corpus, so the log is half-indexed for it.
	base []psf.Definition
	late psf.Definition
	// lookupPSF is the projection Lookup runs against; selective is the
	// Table-1 predicate the index and full scans retrieve.
	lookupPSF, selective string
	// oracle decodes one record with encoding/json and answers, in plain Go,
	// what the store's PSFs should say about it.
	oracle func(rec []byte) (truth, error)
}

// truth is the oracle's verdict on one record.
type truth struct {
	key       expr.Value // value of the lookup projection
	selective bool
	late      bool
}

const (
	yelpSelective   = "yelp-good"
	yelpLate        = "yelp-late"
	githubSelective = "github-issue-opened"
	githubLate      = "github-late"
)

var yelp = dataset{
	gen: func(seed int64) datagen.Generator { return datagen.NewYelp(seed, 700) },
	base: []psf.Definition{
		psf.Projection("review_id"), psf.Projection("user_id"),
		psf.Projection("business_id"), psf.Projection("stars"),
		psf.MustPredicate(yelpSelective, `stars > 3 && useful > 5`),
		psf.MustPredicate("yelp-useful", `useful > 10`),
	},
	late:      psf.MustPredicate(yelpLate, `stars == 5 && cool > 3`),
	lookupPSF: "proj(review_id)",
	selective: yelpSelective,
	oracle: func(rec []byte) (truth, error) {
		var r struct {
			ReviewID            string `json:"review_id"`
			Stars, Useful, Cool int
		}
		err := json.Unmarshal(rec, &r)
		return truth{
			key:       expr.StringVal(r.ReviewID),
			selective: r.Stars > 3 && r.Useful > 5,
			late:      r.Stars == 5 && r.Cool > 3,
		}, err
	},
}

var github = dataset{
	gen: func(seed int64) datagen.Generator { return datagen.NewGithub(seed, 3072) },
	base: []psf.Definition{
		psf.Projection("id"), psf.Projection("actor.id"),
		psf.Projection("repo.id"), psf.Projection("type"),
		psf.MustPredicate(githubSelective, `type == "IssuesEvent" && payload.action == "opened"`),
		psf.MustPredicate("github-pr-cpp", `type == "PullRequestEvent" && payload.pull_request.head.repo.language == "C++"`),
	},
	late:      psf.MustPredicate(githubLate, `type == "WatchEvent"`),
	lookupPSF: "proj(actor.id)",
	selective: githubSelective,
	oracle: func(rec []byte) (truth, error) {
		var r struct {
			Type    string
			Actor   struct{ ID float64 }
			Payload struct{ Action string }
		}
		err := json.Unmarshal(rec, &r)
		return truth{
			key:       expr.NumberVal(r.Actor.ID),
			selective: r.Type == "IssuesEvent" && r.Payload.Action == "opened",
			late:      r.Type == "WatchEvent",
		}, err
	},
}

// workload fixes the input properties the store's behaviour depends on:
// record size, device, and log size relative to MemPages and the page cache.
// Every workload runs the same scenario (scenario.go).
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	data     *dataset
	corpusMB int
	file     bool // File under SimSSD; otherwise storage.Mem
	memPages int
	// tableBuckets sizes the hash table explicitly: the default (1<<16)
	// dies with "overflow bucket pool exhausted" at ~400K Yelp records.
	tableBuckets int
	// mixed runs ingest open loop at openLoopRate beside a closed-loop
	// query goroutine for the whole run instead of phase after phase.
	mixed        bool
	openLoopRate float64
	// Query iterations per round.
	lookups, indexScans, fullScans, reevalScans, adaptiveScans int
}

var workloads = []workload{
	{
		Name: "yelp_mem",
		Why:  "700 B records, whole log in the hlog buffer: ingest is CPU-bound on parser+psf+hashtable, queries never reach storage; device-side changes must show no change here",
		data: &yelp, corpusMB: 64, memPages: 96, tableBuckets: 1 << 18,
		lookups: 2000, indexScans: 20, fullScans: 5, reevalScans: 3, adaptiveScans: 5,
	},
	{
		Name: "github_file",
		Why:  "3 KB records on File under SimSSD, log 8x memory and larger than the page cache: ingest is byte-bound (copy, seal/CRC, flush), queries are cold and device-bound",
		data: &github, corpusMB: 96, file: true, memPages: 8, tableBuckets: 1 << 18,
		lookups: 2000, indexScans: 10, fullScans: 5, reevalScans: 3, adaptiveScans: 5,
	},
	{
		Name: "yelp_file_warm",
		Why:  "Yelp on File under SimSSD, log exceeds memory but fits the page cache: repeated scans measure the cached-device path, between yelp_mem (bypass) and github_file (miss)",
		data: &yelp, corpusMB: 32, file: true, memPages: 8, tableBuckets: 1 << 18,
		lookups: 2000, indexScans: 20, fullScans: 10, reevalScans: 5, adaptiveScans: 10,
	},
	{
		Name: "mixed_rw",
		Why:  "Yelp on File: open-loop ingest at a fixed rate beside a closed-loop query goroutine; a read-path gain paid for at flush time, in epochs or in cache invalidation shows as worse ingest or scan latency",
		data: &yelp, corpusMB: 64, file: true, memPages: 16, tableBuckets: 1 << 20,
		mixed: true, openLoopRate: 25_000,
		lookups: 200, indexScans: 2, fullScans: 1, reevalScans: 1, adaptiveScans: 1,
	},
}

// options returns the store options of one workload. Everything not named
// here is the store's default, as a user would get it.
func (w *workload) options() fishstore.Options {
	return fishstore.Options{PageBits: 20, MemPages: w.memPages, TableBuckets: w.tableBuckets}
}

type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workload    `json:"workloads"`
	EndToEnd   []e2eMetric   `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	b, err := json.MarshalIndent(benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		panic(err) // static tables
	}
	return append(b, '\n')
}
