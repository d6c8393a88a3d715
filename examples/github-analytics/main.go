// Github analytics — the running example of §2.3: ad-hoc analysis with
// on-demand indexing, a recurring query that gets faster as its index
// coverage grows, and point lookups over the in-memory log suffix.
package main

import (
	"fmt"
	"log"

	"fishstore"
	"fishstore/internal/datagen"
	"fishstore/internal/psf"
)

func main() {
	store, err := fishstore.Open(fishstore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	gen := datagen.NewGithub(42, 1024)
	sess := store.NewSession()
	ingest := func(n int) {
		for n > 0 {
			k := 128
			if k > n {
				k = n
			}
			if _, err := sess.Ingest(datagen.Batch(gen, k)); err != nil {
				log.Fatal(err)
			}
			n -= k
		}
	}

	// Phase 1: data arrives with no PSFs registered — raw dump, zero
	// parsing cost.
	ingest(3000)
	fmt.Printf("phase 1: %d bytes ingested unindexed\n", store.Stats().TotalAppendedBytes)

	// Phase 2 (ad-hoc analysis): an analyst decides to study Spark pull
	// requests; registration returns a safe boundary after which the index
	// is complete.
	def, err := psf.Predicate("spark-prs", `repo.name == "spark" && type == "PullRequestEvent"`)
	if err != nil {
		log.Fatal(err)
	}
	prID, res, err := store.RegisterPSF(def)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: PSF registered; indexed from address %d\n", res.SafeRegisterBoundary)
	ingest(3000)

	// An auto scan covers the whole log: a full scan before the boundary, a
	// hash-chain traversal after it.
	var matches int
	st, err := store.Scan(fishstore.PropertyBool(prID, true), fishstore.ScanOptions{},
		func(r fishstore.Record) bool { matches++; return true })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  spark PRs: %d (plan: %d full segment(s), %d indexed)\n",
		matches, countSeg(st.Plan, false), countSeg(st.Plan, true))

	// Phase 3 (recurring query): hourly top committers — the same query
	// over sliding windows gets cheaper as coverage grows; here we show the
	// index-only portion growing.
	pushDef, err := psf.Predicate("spark-pushes", `repo.name == "spark" && type == "PushEvent"`)
	if err != nil {
		log.Fatal(err)
	}
	pushID, _, err := store.RegisterPSF(pushDef)
	if err != nil {
		log.Fatal(err)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		ingest(2000)
		var pushes int
		st, err := store.Scan(fishstore.PropertyBool(pushID, true), fishstore.ScanOptions{},
			func(fishstore.Record) bool { pushes++; return true })
		if err != nil {
			log.Fatal(err)
		}
		var idxBytes, fullBytes uint64
		for _, seg := range st.Plan {
			if seg.Indexed {
				idxBytes += seg.To - seg.From
			} else {
				fullBytes += seg.To - seg.From
			}
		}
		fmt.Printf("phase 3 attempt %d: %d spark pushes; %.0f%% of scan range index-covered\n",
			attempt, pushes, 100*float64(idxBytes)/float64(idxBytes+fullBytes))
	}

	// Phase 4 (point lookups): join-style lookups on actor.id, served from
	// the in-memory portion of the log via the hash index.
	actorID, _, err := store.RegisterPSF(psf.Projection("actor.id"))
	if err != nil {
		log.Fatal(err)
	}
	ingest(2000)
	for _, actor := range []float64{150, 2750, 4100} {
		var n int
		if _, err := store.Lookup(fishstore.PropertyNumber(actorID, actor),
			func(fishstore.Record) bool { n++; return true }); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase 4: actor %.0f has %d recent events\n", actor, n)
	}
	sess.Close()
}

func countSeg(plan []fishstore.Segment, indexed bool) int {
	n := 0
	for _, s := range plan {
		if s.Indexed == indexed {
			n++
		}
	}
	return n
}
