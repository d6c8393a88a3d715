package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"fishstore/internal/expr"
)

const batchRecords = 64

// corpus is the generated input of one run: every record in one flat byte
// slab plus offsets, so the Go GC never scans it and ingest timings do not
// carry its marking cost.
type corpus struct {
	slab []byte
	off  []uint32 // record i is slab[off[i]:off[i+1]]
}

func (c *corpus) records() int     { return len(c.off) - 1 }
func (c *corpus) rec(i int) []byte { return c.slab[c.off[i]:c.off[i+1]] }

// suffix is how many records go in behind each checkpoint, so recovery has a
// log suffix to replay: 1/64 of the corpus. queried is how many records a
// round ingests before its query phase: all but the suffixes. lateAt is where
// the late PSF is registered. All three fall on batch boundaries (records()
// does).
func (c *corpus) suffix() int  { return max(c.records()/64/batchRecords, 1) * batchRecords }
func (c *corpus) queried() int { return c.records() - recoverCycles*c.suffix() }
func (c *corpus) lateAt() int  { return c.records() / 2 / batchRecords * batchRecords }

// prefill is how many records the mixed workload ingests before its window
// opens: half the corpus.
func (c *corpus) prefill() int { return c.records() / 2 / batchRecords * batchRecords }

// fill points batch at records [from, from+len(batch)) and returns their
// payload bytes; indices wrap, so a stream may cycle through the corpus.
func (c *corpus) fill(batch [][]byte, from int) (bytes int64) {
	n := c.records()
	for i := range batch {
		r := c.rec((from + i) % n)
		batch[i] = r
		bytes += int64(len(r))
	}
	return bytes
}

// bytesOf returns the payload bytes of records [from, to).
func (c *corpus) bytesOf(from, to int) int64 { return int64(c.off[to] - c.off[from]) }

// sha is the corpus fingerprint printed in the result header: two runs with
// the same seed must print the same prefix.
func (c *corpus) sha() string {
	sum := sha256.Sum256(c.slab)
	return hex.EncodeToString(sum[:6])
}

// generate draws records from the dataset's generator until the slab holds
// mb megabytes. The record count is rounded down to whole batches.
func generate(d *dataset, seed int64, mb int) *corpus {
	target := mb << 20
	g := d.gen(seed)
	c := &corpus{slab: make([]byte, 0, target+8192), off: []uint32{0}}
	for len(c.slab) < target {
		c.slab = append(c.slab, g.Next()...)
		c.off = append(c.off, uint32(len(c.slab)))
	}
	n := c.records() / batchRecords * batchRecords
	c.off = c.off[:n+1]
	c.slab = c.slab[:c.off[n]]
	return c
}

// oracle holds what plain Go says about every record of the corpus. It is
// computed once per run, outside every timed phase.
type oracle struct {
	selective, late []bool
	keys            []expr.Value // lookup keys, drawn from the seed
}

func buildOracle(d *dataset, c *corpus, seed int64, keys, keyLimit int) (*oracle, error) {
	n := c.records()
	o := &oracle{selective: make([]bool, n), late: make([]bool, n)}
	all := make([]expr.Value, keyLimit)
	for i := 0; i < n; i++ {
		t, err := d.oracle(c.rec(i))
		if err != nil {
			return nil, fmt.Errorf("oracle: record %d: %w", i, err)
		}
		o.selective[i], o.late[i] = t.selective, t.late
		if i < keyLimit {
			all[i] = t.key
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	o.keys = make([]expr.Value, keys)
	for i := range o.keys {
		o.keys[i] = all[rng.Intn(keyLimit)]
	}
	return o, nil
}

// count returns how many of the stream records [from, to) carry the flag;
// stream record k is corpus record k mod n.
func count(flags []bool, from, to int) int64 {
	var c int64
	n := len(flags)
	for k := from; k < to; k++ {
		if flags[k%n] {
			c++
		}
	}
	return c
}
