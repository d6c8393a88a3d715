package introspect

import (
	"math/bits"
	"time"
)

// HistBucket is one bucket of a power-of-two length histogram: Count items
// with value <= Le (and greater than the previous bucket's Le) —
// non-cumulative, matching how the JSON is easiest to read.
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count int64  `json:"count"`
}

// PowHist is a small power-of-two histogram for structural statistics
// (chain lengths). Not safe for concurrent use: samplers build it
// single-threaded and publish the finished snapshot.
type PowHist struct {
	counts [32]int64
	n      int64
	sum    int64
	max    uint64
}

// Observe records one value.
func (h *PowHist) Observe(v uint64) {
	i := 0
	if v > 1 {
		i = bits.Len64(v - 1)
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
	}
	h.counts[i]++
	h.n++
	h.sum += int64(v)
	if v > h.max {
		h.max = v
	}
}

// Count, Max, Sum, Mean summarize the histogram.
func (h *PowHist) Count() int64 { return h.n }
func (h *PowHist) Max() uint64  { return h.max }
func (h *PowHist) Sum() int64   { return h.sum }
func (h *PowHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Buckets renders the non-empty buckets (le=1,2,4,...).
func (h *PowHist) Buckets() []HistBucket {
	var out []HistBucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		out = append(out, HistBucket{Le: uint64(1) << uint(i), Count: c})
	}
	return out
}

// IndexSnapshot is the JSON form of /debug/fishstore/index: hash-table
// occupancy plus (when available) the most recent chain sample.
type IndexSnapshot struct {
	Buckets          int     `json:"buckets"`
	Entries          int     `json:"entries"`           // usable slots: buckets*7 + overflow
	UsedEntries      int     `json:"used_entries"`      // occupied, finalized
	TentativeEntries int     `json:"tentative_entries"` // mid two-phase insert
	LoadFactor       float64 `json:"load_factor"`       // used / main-bucket slots
	OverflowUsed     int     `json:"overflow_used"`
	OverflowCap      int     `json:"overflow_cap"`
	BucketFill       []int   `json:"bucket_fill"` // main buckets by used-slot count (index 0..7)
	TableBytes       int     `json:"table_bytes"`

	Chains *ChainSnapshot `json:"chains,omitempty"`
}

// ChainSnapshot summarizes a walk over the subset hash index's chains.
type ChainSnapshot struct {
	SampledAt       time.Time   `json:"sampled_at"`
	ElapsedSeconds  float64     `json:"elapsed_seconds"`
	Chains          int         `json:"chains"`
	Links           int64       `json:"links"`
	InMemLinks      int64       `json:"in_mem_links"`
	OnDeviceLinks   int64       `json:"on_device_links"`
	TruncatedChains int         `json:"truncated_chains"` // hit the per-chain link cap
	SkippedChains   int         `json:"skipped_chains"`   // beyond the chain cap
	PerPSF          []PSFChains `json:"per_psf"`
}

// PSFChains is one PSF's chain-length distribution (§6.3: chain length is
// what turns the latch-free index walk into random I/O on storage).
type PSFChains struct {
	PSFID   uint16       `json:"psf_id"`
	Name    string       `json:"name,omitempty"`
	Chains  int          `json:"chains"`
	Links   int64        `json:"links"`
	MaxLen  uint64       `json:"max_len"`
	MeanLen float64      `json:"mean_len"`
	Lengths []HistBucket `json:"length_histogram"`
}

// LogSnapshot is the JSON form of /debug/fishstore/log: live vs invalidated
// vs filler composition of the walked log range.
type LogSnapshot struct {
	SampledAt      time.Time `json:"sampled_at"`
	From           uint64    `json:"from"`
	To             uint64    `json:"to"`
	WalkedBytes    uint64    `json:"walked_bytes"`
	Truncated      bool      `json:"truncated"` // stopped at the byte cap before To
	Records        int64     `json:"records"`   // non-filler records
	LiveRecords    int64     `json:"live_records"`
	InvalidRecords int64     `json:"invalid_records"`
	IndirectRecs   int64     `json:"indirect_records"`
	Fillers        int64     `json:"fillers"`
	LiveBytes      int64     `json:"live_bytes"`
	InvalidBytes   int64     `json:"invalid_bytes"`
	FillerBytes    int64     `json:"filler_bytes"`
	KeyPointers    int64     `json:"key_pointers"`
	// Degraded reports whether the store has flipped to read-only after a
	// permanent I/O failure; DegradedCause is the first error that did it.
	Degraded      bool   `json:"degraded"`
	DegradedCause string `json:"degraded_cause,omitempty"`
}

// ScanSegment is one piece of an executed scan plan.
type ScanSegment struct {
	From    uint64 `json:"from"`
	To      uint64 `json:"to"`
	Indexed bool   `json:"indexed"`
}

// ScanDecision records why and how one subset retrieval executed: the
// per-segment index/full split, the cost-model inputs in force (Φ =
// (c_syscall + lat_rand)·bw_seq, §7.2 / Fig 9), and the observed work. The
// store keeps the last N decisions in a lock-free ring served by
// /debug/fishstore/scan.
type ScanDecision struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Mode string    `json:"mode"`
	PSF  uint16    `json:"psf"`

	From     uint64        `json:"from"`
	To       uint64        `json:"to"`
	Segments []ScanSegment `json:"segments"`
	// IndexedBytes/FullBytes split the range by plan segment kind;
	// IndexedFraction = IndexedBytes / (IndexedBytes + FullBytes).
	IndexedBytes    uint64  `json:"indexed_bytes"`
	FullBytes       uint64  `json:"full_bytes"`
	IndexedFraction float64 `json:"indexed_fraction"`

	// Cost-model inputs the adaptive prefetcher used (Fig 9).
	PhiBytes           uint64  `json:"phi_bytes"`
	BwSeqBytesPerSec   float64 `json:"bw_seq_bytes_per_sec"`
	RandLatencySeconds float64 `json:"lat_rand_seconds"`
	SyscallCostSeconds float64 `json:"c_syscall_seconds"`

	// Observed execution.
	Matched        int64   `json:"matched"`
	Visited        int64   `json:"visited"`
	IndexHops      int64   `json:"index_hops"`
	IOs            int64   `json:"ios"`
	ReadBytes      int64   `json:"read_bytes"`
	PrefetchHits   int64   `json:"prefetch_hits"`
	PageCacheHits  int64   `json:"page_cache_hits"`
	Stopped        bool    `json:"stopped"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// ScanLog is the JSON form of /debug/fishstore/scan.
type ScanLog struct {
	Capacity  int            `json:"capacity"`
	Total     uint64         `json:"total"`
	Dropped   uint64         `json:"dropped"`
	Decisions []ScanDecision `json:"decisions"`
}
