package fishstore

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"fishstore/internal/hlog"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// openYelpMemStore ingests n Yelp-shaped reviews into a store whose whole
// log stays in the in-memory buffer, with projections on stars, review_id
// and business_id registered before the first record.
func openYelpMemStore(t testing.TB, n int) (s *Store, stars, review, business psf.ID) {
	t.Helper()
	s = openTestStore(t, Options{PageBits: 22, MemPages: 4, TableBuckets: 1 << 14})
	ids := make([]psf.ID, 3)
	for i, field := range []string{"stars", "review_id", "business_id"} {
		id, _, err := s.RegisterPSF(psf.Projection(field))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = yelpShaped(i)
	}
	ingestAll(t, s, batch)
	if s.log.HeadAddress() > hlog.BeginAddress {
		t.Fatalf("log does not fit in memory: head %d", s.log.HeadAddress())
	}
	return s, ids[0], ids[1], ids[2]
}

// TestScanAllocsIndependentOfMatches pins that an in-memory index scan lends
// each record to its callback instead of copying it: a scan with over a
// thousand matches allocates no more than one with a single match. So does a
// pointer-match full scan (the index is complete over the whole log): one
// that visits every record and matches a fifth of them allocates no more
// than one over a tenth of the log with a single match. A Lookup
// — the ledger's point query, stopping at the first match — allocates at
// most four times, over keys that are each new to the queried-property
// sketch.
func TestScanAllocsIndependentOfMatches(t *testing.T) {
	const n = 6000
	s, stars, review, business := openYelpMemStore(t, n)

	scanAllocs := func(prop Property, opts ScanOptions, want int) (float64, ScanStats) {
		var matched int
		var st ScanStats
		allocs := testing.AllocsPerRun(20, func() {
			matched = 0
			var err error
			if st, err = s.Scan(prop, opts, func(r Record) bool {
				matched++
				return true
			}); err != nil {
				t.Fatal(err)
			}
		})
		if matched != want {
			t.Fatalf("%v matched %d, want %d", prop.Value, matched, want)
		}
		return allocs, st
	}
	index := ScanOptions{Mode: ScanForceIndex}
	many, _ := scanAllocs(PropertyNumber(stars, 5), index, n/5)
	one, _ := scanAllocs(PropertyString(review, fmt.Sprintf("r%012d", 1234)), index, 1)
	t.Logf("allocs per index scan: %v with %d matches, %v with 1", many, n/5, one)
	if many > one {
		t.Errorf("index scan with %d matches allocates %v, one with a single match %v", n/5, many, one)
	}

	// The first tenth of the log ends at record n/10.
	var tenth uint64
	if _, err := s.Scan(PropertyString(review, fmt.Sprintf("r%012d", n/10)), index, func(r Record) bool {
		tenth = r.Address
		return false
	}); err != nil || tenth == 0 {
		t.Fatalf("record %d: address %d, %v", n/10, tenth, err)
	}
	fullMany, stMany := scanAllocs(PropertyNumber(stars, 5), ScanOptions{Mode: ScanForceFull}, n/5)
	fullOne, stOne := scanAllocs(PropertyString(review, fmt.Sprintf("r%012d", 12)), ScanOptions{Mode: ScanForceFull, To: tenth}, 1)
	if stMany.Visited != n || stOne.Visited != n/10 || len(stMany.Plan) != 1 || stMany.Plan[0].Indexed {
		t.Fatalf("full scans visited %d and %d records, want %d and %d; plan %+v", stMany.Visited, stOne.Visited, n, n/10, stMany.Plan)
	}
	t.Logf("allocs per pointer-match full scan: %v visiting %d with %d matches, %v visiting %d with 1",
		fullMany, n, n/5, fullOne, n/10)
	if fullMany > fullOne {
		t.Errorf("full scan visiting %d records with %d matches allocates %v, one visiting %d with a single match %v",
			n, n/5, fullMany, n/10, fullOne)
	}

	// Businesses b000001..b000498 but every fourth, whose names the
	// generator escapes: hundreds of distinct keys, well past the sketch's
	// capacity, so every Lookup observes a new key.
	var keys []Property
	for b := 1; b < 499; b++ {
		if b%4 != 0 {
			keys = append(keys, PropertyString(business, fmt.Sprintf("b%06d", b)))
		}
	}
	// The callback is built once: a closure that captures a variable is
	// allocated by the caller, not by the Lookup.
	next, found := 0, false
	first := func(Record) bool {
		found = true
		return false
	}
	lookups := testing.AllocsPerRun(200, func() {
		prop := keys[next%len(keys)]
		next++
		found = false
		if _, err := s.Lookup(prop, first); err != nil || !found {
			t.Fatalf("Lookup %v: err=%v found=%v", prop.Value, err, found)
		}
	})
	t.Logf("allocs per Lookup: %v", lookups)
	if lookups > 4 {
		t.Errorf("Lookup allocates %v times, want at most 4", lookups)
	}
}

// TestBorrowedPayloadScribble checks the loan on every scan path: each
// callback checks the bytes it was lent against the record ingested at its
// address, then overwrites every one of them before returning, as a caller
// that ignored the loan would. The scan must deliver each record once and
// never read a lent byte again once its callback has returned; a later
// delivery of scribbled bytes, a quarantined record or a wrong match count
// fails the case. After each scan the test puts the lent bytes back (in a
// store whose frames cannot be recycled in between), and at the end
// VerifyLog finds the log clean and every scan, run again, returns the
// original bytes.
//
// The paths: index hops through the in-memory frames, the page cache and
// the chain reader's speculation buffer (with and without prefetching);
// pointer-matching and re-evaluating full scans; Lookup; ScanRange; Iterate;
// and historical (indirect) index records, whose targets are in memory or
// on the device.
func TestBorrowedPayloadScribble(t *testing.T) {
	for _, layout := range []struct {
		name string
		opts Options
		// hops reports whether an index scan's hops took the layout's path.
		hops func(ScanStats) bool
	}{
		// The whole log in one in-memory page.
		{"memory", Options{Device: storage.NewMem(), PageBits: 22, MemPages: 4},
			func(st ScanStats) bool { return st.IOs == 0 && st.PrefetchHits == 0 }},
		// 4 KB pages, two in memory, every other page in a cache that
		// holds them all and so never recycles a frame.
		{"pagecache", Options{Device: storage.NewMem(), PageBits: 12, MemPages: 2, PageCachePages: 1024, VerifyOnRead: true},
			func(st ScanStats) bool { return st.PageCacheHits > 0 && st.PageCacheHits == st.IndexHops }},
		// No cache: hops read the device through the speculation buffer,
		// full scans into a buffer per page.
		{"speculation", Options{Device: storage.NewMem(), PageBits: 12, MemPages: 2, PageCachePages: -1, VerifyOnRead: true},
			func(st ScanStats) bool { return st.PrefetchHits > 0 && st.PageCacheHits == 0 }},
	} {
		t.Run(layout.name, func(t *testing.T) { testBorrowedPayloadScribble(t, layout.opts, layout.hops) })
	}
}

func testBorrowedPayloadScribble(t *testing.T, opts Options, hops func(ScanStats) bool) {
	const n = 2000
	opts.TableBuckets = 1 << 12
	s := openTestStore(t, opts)
	reg := func(def psf.Definition) psf.ID {
		id, _, err := s.RegisterPSF(def)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	stars, useful := reg(psf.Projection("stars")), reg(psf.RangeBucket("useful", 5))
	ingest := func(from, to int) uint64 {
		var batch [][]byte
		for i := from; i < to; i++ {
			batch = append(batch, yelpShaped(i))
		}
		ingestAll(t, s, batch)
		return s.TailAddress()
	}
	// business_id is indexed from record 1000 on, and historically over
	// records [0, 500): the records in between are reached only by
	// re-evaluating full scans.
	historicalEnd := ingest(0, 500)
	ingest(500, 1000)
	business := reg(psf.Projection("business_id"))
	ingest(1000, n)
	if _, err := s.BuildHistoricalIndex(business, 0, historicalEnd); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// The bytes ingested at each data record's address, read before any
	// scribbling.
	want := map[uint64][]byte{}
	if err := s.Iterate(0, 0, func(r Record) bool {
		want[r.Address] = bytes.Clone(r.Payload)
		return true
	}); err != nil || len(want) != n {
		t.Fatalf("Iterate: %d records, %v", len(want), err)
	}

	// b000001 is reviews 1, 501, 1001 and 1501: one historical, one in
	// the unindexed gap, two indexed directly. stars=5 is every fifth.
	bus := PropertyString(business, "b000001")
	five := PropertyNumber(stars, 5)
	scan := func(prop Property, mode ScanMode) func(cb func(Record) bool) (ScanStats, error) {
		return func(cb func(Record) bool) (ScanStats, error) { return s.Scan(prop, ScanOptions{Mode: mode}, cb) }
	}
	cases := []struct {
		name    string
		matches int
		run     func(cb func(Record) bool) (ScanStats, error)
	}{
		{"index", n / 5, scan(five, ScanForceIndex)},
		{"index-noprefetch", n / 5, scan(five, ScanIndexNoPrefetch)},
		{"full-pointer", n / 5, scan(five, ScanForceFull)},
		{"full-reeval", 4, scan(bus, ScanForceFull)},
		{"index-historical", 3, scan(bus, ScanForceIndex)},
		{"auto-historical", 4, scan(bus, ScanAuto)},
		{"lookup", 2, func(cb func(Record) bool) (ScanStats, error) { return s.Lookup(bus, cb) }},
		{"range", 0, func(cb func(Record) bool) (ScanStats, error) {
			return s.ScanRange(useful, 3, 7, ScanOptions{}, cb)
		}},
		{"iterate", n, func(cb func(Record) bool) (ScanStats, error) {
			return ScanStats{}, s.Iterate(0, 0, cb)
		}},
	}
	// Reviews with useful (i%13) in [3, 7).
	for i := 0; i < n; i++ {
		if u := i % 13; u >= 3 && u < 7 {
			cases[7].matches++
		}
	}

	delivered := make([]map[uint64]bool, len(cases))
	for c, tc := range cases {
		got := map[uint64]bool{}
		var lent, orig [][]byte
		st, err := tc.run(func(r Record) bool {
			if !bytes.Equal(r.Payload, want[r.Address]) {
				t.Errorf("%s: record at %d lent %q, want %q", tc.name, r.Address, r.Payload, want[r.Address])
			}
			if got[r.Address] {
				t.Errorf("%s: record at %d delivered twice", tc.name, r.Address)
			}
			got[r.Address] = true
			lent, orig = append(lent, r.Payload), append(orig, bytes.Clone(r.Payload))
			for i := range r.Payload {
				r.Payload[i] = 0xA5
			}
			return true
		})
		for i := range lent {
			copy(lent[i], orig[i])
		}
		if err != nil || st.Quarantined != 0 || len(got) != tc.matches {
			t.Fatalf("%s: %d matches (want %d), %d quarantined, %v", tc.name, len(got), tc.matches, st.Quarantined, err)
		}
		if (tc.name == "index" || tc.name == "range") && !hops(st) {
			t.Fatalf("%s: the hops did not take this layout's read path: %+v", tc.name, st)
		}
		delivered[c] = got
	}

	rep, err := s.VerifyLog(VerifyOptions{})
	if err != nil || rep.Corruption != nil {
		t.Fatalf("VerifyLog after the scribbled scans: %v, %+v", err, rep.Corruption)
	}
	for c, tc := range cases {
		got := map[uint64]bool{}
		if _, err := tc.run(func(r Record) bool {
			if !bytes.Equal(r.Payload, want[r.Address]) {
				t.Errorf("%s again: record at %d is %q, want %q", tc.name, r.Address, r.Payload, want[r.Address])
			}
			got[r.Address] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, delivered[c]) {
			t.Errorf("%s again: delivered %d records, %d the first time", tc.name, len(got), len(delivered[c]))
		}
	}
}
