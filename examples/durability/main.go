// Durability walkthrough — Appendix E: fuzzy-style checkpointing of the
// hash index, crash recovery with log-suffix replay, and continued
// ingestion on the recovered store.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"fishstore"
	"fishstore/internal/datagen"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

func main() {
	dir, err := os.MkdirTemp("", "fishstore-durability")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "log.dat")
	ckptDir := filepath.Join(dir, "checkpoint")

	// ---- Phase 1: a store backed by a real file. ----
	dev, err := storage.OpenFile(logPath)
	if err != nil {
		log.Fatal(err)
	}
	store, err := fishstore.Open(fishstore.Options{Device: dev, PageBits: 16, MemPages: 4})
	if err != nil {
		log.Fatal(err)
	}
	id, _, err := store.RegisterPSF(psf.Projection("business_id"))
	if err != nil {
		log.Fatal(err)
	}

	gen := datagen.NewYelp(1, 400)
	sess := store.NewSession()
	ingest := func(n int) {
		if _, err := sess.Ingest(datagen.Batch(gen, n)); err != nil {
			log.Fatal(err)
		}
	}
	ingest(1000)
	fmt.Printf("ingested 1000 reviews; tail=%d, on the device below head=%d\n",
		store.TailAddress(), store.HeadAddress())

	// ---- Phase 2: checkpoint, then keep ingesting. ----
	if err := store.Checkpoint(ckptDir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint taken at tail=%d\n", store.TailAddress())
	ingest(500) // these 500 will be recovered by log replay
	sess.Close()

	// Close flushes the tail; a real crash would lose at most the unsealed
	// in-memory suffix.
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- simulated crash --")

	// ---- Phase 3: recover. ----
	dev2, err := storage.OpenFileExisting(logPath)
	if err != nil {
		log.Fatal(err)
	}
	recovered, info, err := fishstore.Recover(ckptDir, fishstore.RecoverOptions{
		Options: fishstore.Options{Device: dev2},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	fmt.Printf("recovered: checkpoint covered <%d, replayed %d records up to %d\n",
		info.CheckpointTail, info.ReplayedRecords, info.RecoveredTail)

	// The restored business_id index still answers lookups: regenerate the
	// first ingested record (same seed) and retrieve its business's reviews
	// through the recovered hash chains.
	first := string(datagen.NewYelp(1, 400).Next())
	const marker = `"business_id": "`
	i := indexOf(first, marker)
	business := first[i+len(marker) : i+len(marker)+7]
	var viaIndex int
	if _, err := recovered.Scan(fishstore.PropertyString(id, business),
		fishstore.ScanOptions{Mode: fishstore.ScanForceIndex},
		func(fishstore.Record) bool { viaIndex++; return true }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index lookup for business %s after recovery: %d review(s)\n", business, viaIndex)

	var total int
	// Count everything via a full-scan cross-check using a fresh predicate.
	allID, _, err := recovered.RegisterPSF(psf.MustPredicate("all", `stars >= 1`))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := recovered.Scan(fishstore.PropertyBool(allID, true),
		fishstore.ScanOptions{Mode: fishstore.ScanForceFull},
		func(fishstore.Record) bool { total++; return true }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("records readable after recovery: %d (want 1500)\n", total)

	// ---- Phase 4: the recovered store keeps working. ----
	sess2 := recovered.NewSession()
	if _, err := sess2.Ingest(datagen.Batch(datagen.NewYelp(2, 400), 100)); err != nil {
		log.Fatal(err)
	}
	sess2.Close()
	fmt.Printf("post-recovery ingestion OK; new tail=%d\n", recovered.TailAddress())
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
