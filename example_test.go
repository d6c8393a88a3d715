package fishstore_test

import (
	"fmt"
	"os"
	"path/filepath"

	"fishstore"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// The basic flow: open, register PSFs, ingest, retrieve.
func Example() {
	store, _ := fishstore.Open(fishstore.Options{})
	defer store.Close()

	repo, _, _ := store.RegisterPSF(psf.Projection("repo.name"))

	sess := store.NewSession()
	sess.Ingest([][]byte{
		[]byte(`{"id": 1, "repo": {"name": "spark"}}`),
		[]byte(`{"id": 2, "repo": {"name": "flink"}}`),
		[]byte(`{"id": 3, "repo": {"name": "spark"}}`),
	})
	sess.Close()

	var n int
	store.Scan(fishstore.PropertyString(repo, "spark"), fishstore.ScanOptions{},
		func(r fishstore.Record) bool { n++; return true })
	fmt.Println("spark records:", n)
	// Output: spark records: 2
}

// Predicate PSFs index only the records a boolean expression selects.
func ExampleStore_RegisterPSF_predicate() {
	store, _ := fishstore.Open(fishstore.Options{})
	defer store.Close()

	def, _ := psf.Predicate("hot", `cpu > 90`)
	id, _, _ := store.RegisterPSF(def)

	sess := store.NewSession()
	stats, _ := sess.Ingest([][]byte{
		[]byte(`{"machine": "m0", "cpu": 95.5}`),
		[]byte(`{"machine": "m1", "cpu": 12.0}`),
	})
	sess.Close()

	fmt.Println("index entries written:", stats.Properties)
	var hot int
	store.Scan(fishstore.PropertyBool(id, true), fishstore.ScanOptions{},
		func(fishstore.Record) bool { hot++; return true })
	fmt.Println("hot machines:", hot)
	// Output:
	// index entries written: 1
	// hot machines: 1
}

// Range-bucket PSFs support predefined range queries with post-filtering
// (Appendix B).
func ExampleStore_ScanRange() {
	store, _ := fishstore.Open(fishstore.Options{})
	defer store.Close()

	id, _, _ := store.RegisterPSF(psf.RangeBucket("cpu", 25))

	sess := store.NewSession()
	for _, cpu := range []float64{5, 30, 55, 80, 99} {
		sess.Ingest([][]byte{[]byte(fmt.Sprintf(`{"cpu": %g}`, cpu))})
	}
	sess.Close()

	var n int
	store.ScanRange(id, 50, 100, fishstore.ScanOptions{},
		func(fishstore.Record) bool { n++; return true })
	fmt.Println("cpu in [50,100):", n)
	// Output: cpu in [50,100): 3
}

// Subscriptions stream matching records to consumers as they are ingested.
func ExampleStore_Subscribe() {
	store, _ := fishstore.Open(fishstore.Options{})
	defer store.Close()

	id, _, _ := store.RegisterPSF(psf.Projection("level"))
	sub := store.Subscribe(fishstore.PropertyString(id, "error"), fishstore.SubscribeOptions{Buffer: 16})

	sess := store.NewSession()
	sess.Ingest([][]byte{
		[]byte(`{"level": "info", "msg": "a"}`),
		[]byte(`{"level": "error", "msg": "b"}`),
		[]byte(`{"level": "error", "msg": "c"}`),
	})
	sess.Close()
	sub.Cancel()

	var n int
	for range sub.Records() {
		n++
	}
	fmt.Println("errors streamed:", n)
	// Output: errors streamed: 2
}

// Early stop (the paper's Touch signal): return false from the callback.
func ExampleStore_Scan_earlyStop() {
	store, _ := fishstore.Open(fishstore.Options{})
	defer store.Close()

	id, _, _ := store.RegisterPSF(psf.Projection("k"))
	sess := store.NewSession()
	for i := 0; i < 100; i++ {
		sess.Ingest([][]byte{[]byte(`{"k": "v"}`)})
	}
	sess.Close()

	var n int
	st, _ := store.Scan(fishstore.PropertyString(id, "v"), fishstore.ScanOptions{},
		func(fishstore.Record) bool {
			n++
			return n < 3 // stop after a small sample
		})
	fmt.Println(n, st.Stopped)
	// Output: 3 true
}

// Checkpoint the index, keep ingesting, and recover after a restart: the
// table image restores every chain below the checkpoint and the log suffix
// past it is replayed (Appendix E).
func ExampleRecover() {
	dir, _ := os.MkdirTemp("", "fishstore-example")
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "log.dat")
	ckpt := filepath.Join(dir, "checkpoint")

	dev, _ := storage.OpenFile(logPath)
	store, _ := fishstore.Open(fishstore.Options{Device: dev, PageBits: 12, MemPages: 4})
	id, _, _ := store.RegisterPSF(psf.Projection("repo.name"))
	sess := store.NewSession()
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			sess.Ingest([][]byte{[]byte(fmt.Sprintf(`{"id": %d, "repo": {"name": "spark"}}`, i))})
		}
	}
	ingest(0, 100)
	store.Checkpoint(ckpt)
	ingest(100, 130) // past the checkpoint: replayed from the log
	sess.Close()
	store.Close()

	dev, _ = storage.OpenFileExisting(logPath)
	recovered, info, err := fishstore.Recover(ckpt, fishstore.RecoverOptions{
		Options: fishstore.Options{Device: dev},
	})
	if err != nil {
		fmt.Println("recover:", err)
		return
	}
	defer recovered.Close()
	var n int
	recovered.Scan(fishstore.PropertyString(id, "spark"),
		fishstore.ScanOptions{Mode: fishstore.ScanForceIndex},
		func(fishstore.Record) bool { n++; return true })
	fmt.Println("replayed records:", info.ReplayedRecords)
	fmt.Println("spark records via the index:", n)
	// Output:
	// replayed records: 30
	// spark records via the index: 130
}
