package harness

import (
	"os"
	"path/filepath"
	"time"

	"fishstore"
	"fishstore/internal/datagen"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// RunFig20a measures recovery time as a function of the checkpoint
// interval: the longer since the last checkpoint, the longer the durable
// log suffix that must be replayed (Appendix E / Fig 20a).
func RunFig20a(cfg Config) error {
	w := Table1()["github"]
	intervals := []int{1, 2, 4, 8}
	if cfg.Quick {
		intervals = []int{1, 4}
	}
	unitMB := cfg.DataMB / 8
	if unitMB < 1 {
		unitMB = 1
	}

	row(cfg.Out, "## Fig 20(a): recovery time vs checkpoint interval (github)")
	row(cfg.Out, "interval(xMB)\treplayed-records\trecovery(s)")
	for _, iv := range intervals {
		dir, err := os.MkdirTemp("", "fishstore-fig20a")
		if err != nil {
			return err
		}
		logPath := filepath.Join(dir, "log.dat")
		dev, err := storage.OpenFile(logPath)
		if err != nil {
			return err
		}
		opts := fishstore.Options{Device: dev, PageBits: 20, MemPages: 8, Parser: w.Parser, TableBuckets: 1 << 12}
		s, err := fishstore.Open(opts)
		if err != nil {
			return err
		}
		if _, _, err := s.RegisterPSF(psf.Projection("type")); err != nil {
			return err
		}
		sess := s.NewSession()
		gen := w.NewGen(3)
		ingestMB := func(mb int) error {
			remaining := mb << 20
			for remaining > 0 {
				batch := datagen.Batch(gen, 32)
				st, err := sess.Ingest(batch)
				if err != nil {
					return err
				}
				remaining -= int(st.Bytes)
			}
			return nil
		}
		// Base data + checkpoint.
		if err := ingestMB(unitMB); err != nil {
			return err
		}
		ckptDir := filepath.Join(dir, "ckpt")
		if err := s.Checkpoint(ckptDir); err != nil {
			return err
		}
		// Post-checkpoint suffix of iv * unitMB, then "crash" (close flushes
		// the tail; a real crash would lose at most the unsealed page).
		if err := ingestMB(iv * unitMB); err != nil {
			return err
		}
		sess.Close()
		if err := s.Close(); err != nil {
			return err
		}

		dev2, err := storage.OpenFileExisting(logPath)
		if err != nil {
			return err
		}
		start := time.Now()
		s2, info, err := fishstore.Recover(ckptDir, fishstore.RecoverOptions{
			Options: fishstore.Options{Device: dev2, Parser: w.Parser, TableBuckets: 1 << 12},
		})
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		s2.Close()
		os.RemoveAll(dir)
		row(cfg.Out, "%d\t%d\t%.3f", iv*unitMB, info.ReplayedRecords, elapsed.Seconds())
	}
	row(cfg.Out, "")
	return nil
}

// RunFig20b measures checkpoint and recovery time as a function of hash
// table size (Fig 20b). The paper's times grow with size because FASTER
// dumps and loads the whole table; here the image holds only the table's
// non-zero words, so both cost the occupancy plus one pass over the table.
func RunFig20b(cfg Config) error {
	w := Table1()["yelp"]
	// Table sizes in MB: buckets are 64B each.
	sizesMB := []int{1, 2, 4, 8, 16, 32}
	if cfg.Quick {
		sizesMB = []int{1, 8}
	}

	row(cfg.Out, "## Fig 20(b): checkpoint/recovery time vs hash table size (yelp)")
	row(cfg.Out, "tableMB\tcheckpoint(s)\trecover(s)")
	for _, mb := range sizesMB {
		buckets := mb << 20 / 64
		dir, err := os.MkdirTemp("", "fishstore-fig20b")
		if err != nil {
			return err
		}
		logPath := filepath.Join(dir, "log.dat")
		dev, err := storage.OpenFile(logPath)
		if err != nil {
			return err
		}
		s, err := fishstore.Open(fishstore.Options{
			Device: dev, PageBits: 20, MemPages: 8, Parser: w.Parser, TableBuckets: buckets,
		})
		if err != nil {
			return err
		}
		if _, _, err := s.RegisterPSF(psf.Projection("business_id")); err != nil {
			return err
		}
		sess := s.NewSession()
		gen := w.NewGen(4)
		remaining := (cfg.DataMB / 4) << 20
		for remaining > 0 {
			batch := datagen.Batch(gen, 64)
			st, err := sess.Ingest(batch)
			if err != nil {
				return err
			}
			remaining -= int(st.Bytes)
		}
		sess.Close()

		ckptDir := filepath.Join(dir, "ckpt")
		ckStart := time.Now()
		if err := s.Checkpoint(ckptDir); err != nil {
			return err
		}
		ckElapsed := time.Since(ckStart)
		if err := s.Close(); err != nil {
			return err
		}

		dev2, err := storage.OpenFileExisting(logPath)
		if err != nil {
			return err
		}
		recStart := time.Now()
		s2, _, err := fishstore.Recover(ckptDir, fishstore.RecoverOptions{
			Options: fishstore.Options{Device: dev2, Parser: w.Parser},
		})
		recElapsed := time.Since(recStart)
		if err != nil {
			return err
		}
		s2.Close()
		os.RemoveAll(dir)
		row(cfg.Out, "%d\t%.3f\t%.3f", mb, ckElapsed.Seconds(), recElapsed.Seconds())
	}
	row(cfg.Out, "")
	return nil
}

// Experiments maps experiment ids to runners (the cmd/fishbench registry).
func Experiments() map[string]func(Config) error {
	return map[string]func(Config) error{
		"table1": RunTable1,
		"fig10":  RunFig10,
		"fig11":  RunFig11,
		"fig12":  RunFig12,
		"fig13":  RunFig13,
		"fig14":  RunFig14,
		"fig15":  RunFig15,
		"fig16a": RunFig16a,
		"fig16b": RunFig16b,
		"fig16c": RunFig16c,
		"fig16d": RunFig16d,
		"fig16e": RunFig16e,
		"fig17":  RunFig17,
		"fig18a": RunFig18a,
		"fig18b": RunFig18b,
		"fig19":  RunFig19,
		"fig20a": RunFig20a,
		"fig20b": RunFig20b,
		"appF":   RunAppF,
		"mongo":  RunMongo,
	}
}

// ExperimentOrder returns ids in presentation order.
func ExperimentOrder() []string {
	return []string{
		"table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16a", "fig16b", "fig16c", "fig16d", "fig16e", "fig17",
		"fig18a", "fig18b", "fig19", "fig20a", "fig20b", "appF", "mongo",
	}
}
