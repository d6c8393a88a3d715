package baselines

import (
	"testing"

	"fishstore/internal/datagen"
	"fishstore/internal/expr"
	"fishstore/internal/fasterkv"
	"fishstore/internal/lsm"
	"fishstore/internal/parser/fulljson"
	"fishstore/internal/parser/pjson"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

func smallLSM() lsm.Options {
	return lsm.Options{MemtableBytes: 64 << 10, BaseLevelBytes: 256 << 10, TargetTableBytes: 64 << 10}
}

func TestFasterRJIngestAndRead(t *testing.T) {
	sys, err := NewFasterRJ(fasterkv.Options{PageBits: 14, MemPages: 4, TableBuckets: 256, Device: storage.NewMem()},
		fulljson.New(), "id")
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	w, err := sys.NewIngestor()
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewYelp(1, 300)
	batch := datagen.Batch(g, 100)
	if err := w.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

func TestRDBRJIngestSimple(t *testing.T) {
	sys := NewRDBKV("RDB-RJ", smallLSM(), fulljson.New(), "review_id")
	defer sys.Close()
	w, err := sys.NewIngestor()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := datagen.Batch(datagen.NewYelp(1, 300), 200)
	if err := w.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	sys.DB().WaitIdle()
	if sys.DB().Stats().UserBytes == 0 {
		t.Fatal("nothing reached the LSM tree")
	}
}

func TestRDBMisonPPIngestAndRetrieve(t *testing.T) {
	defs := []psf.Definition{
		psf.Projection("business_id"),
		psf.MustPredicate("good", `stars > 3 && useful > 5`),
	}
	sys, err := NewRDBMisonPP(RDBMisonPPOptions{
		PageBits: 13, MemPages: 4, Device: storage.NewMem(), LSM: smallLSM(),
	}, pjson.New(), defs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	w, err := sys.NewIngestor()
	if err != nil {
		t.Fatal(err)
	}
	batch := datagen.Batch(datagen.NewYelp(3, 300), 500)
	if err := w.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	w.Close()

	if sys.IndexedProperties() == 0 {
		t.Fatal("no index entries written")
	}

	// Retrieve all "good" reviews and cross-check against brute force.
	var got int64
	n, err := sys.Retrieve(1, expr.BoolVal(true), func(payload []byte) bool {
		got++
		if len(payload) == 0 || payload[0] != '{' {
			t.Errorf("bad payload %q", payload[:min(20, len(payload))])
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != got || n == 0 {
		t.Fatalf("retrieved %d/%d", got, n)
	}

	// Brute force count.
	e := expr.MustParse(`stars > 3 && useful > 5`)
	ps, err := pjson.New().NewSession(e.Fields())
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, rec := range batch {
		p, perr := ps.Parse(rec)
		if perr != nil {
			t.Fatal(perr)
		}
		if e.EvalBool(p) {
			want++
		}
	}
	if n != want {
		t.Fatalf("retrieved %d, brute force %d", n, want)
	}
}

func TestReorgIngest(t *testing.T) {
	sys, err := NewReorg(13, 4, storage.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	w, err := sys.NewIngestor()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Ingest(datagen.Batch(datagen.NewYelp(9, 300), 100)); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
