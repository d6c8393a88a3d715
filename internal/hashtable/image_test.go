package hashtable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
	"time"
)

// fill creates n entries in tbl, each with a distinct chain-head address,
// and returns their hashes.
func fill(t testing.TB, tbl *Table, n int) []uint64 {
	t.Helper()
	var hashes []uint64
	for i := 0; i < n; i++ {
		h := HashProperty(uint16(i%5), []byte(fmt.Sprintf("v%d", i)))
		s, err := tbl.FindOrCreate(h)
		if err != nil {
			t.Fatal(err)
		}
		s.CompareAndSwapAddress(s.Load(), uint64(64+i*16))
		hashes = append(hashes, h)
	}
	return hashes
}

// settled returns arr with its tentative entries freed: what a restore of
// arr holds.
func settled(arr []uint64) []uint64 {
	out := slices.Clone(arr)
	for i, w := range out {
		if i%wordsPerBucket != entriesPerBucket && w&tentativeBit != 0 {
			out[i] = 0
		}
	}
	return out
}

// overflowOf concatenates tbl's overflow segments: the overflow buckets in
// index order.
func overflowOf(tbl *Table) []uint64 {
	var out []uint64
	for k := range tbl.overflow {
		if seg := tbl.overflow[k].Load(); seg != nil {
			out = append(out, *seg...)
		}
	}
	return out
}

// requireSameTable fails unless got holds want's buckets and overflow
// buckets word for word, but for want's tentative entries, which a restore
// frees.
func requireSameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if !slices.Equal(got.buckets, settled(want.buckets)) || !slices.Equal(overflowOf(got), settled(overflowOf(want))) {
		t.Fatal("restored arrays differ from the original")
	}
	if got.mask != want.mask {
		t.Fatalf("mask = %d, want %d", got.mask, want.mask)
	}
	if g, w := got.overflowNext.Load(), want.overflowNext.Load(); g != w {
		t.Fatalf("overflowNext = %d, want %d", g, w)
	}
}

func roundTrip(t *testing.T, tbl *Table) (*Table, []byte) {
	t.Helper()
	var buf bytes.Buffer
	n, err := tbl.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	img := slices.Clone(buf.Bytes())
	if n != int64(len(img)) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, len(img))
	}
	restored := New(1, 1)
	if n, err := restored.ReadFrom(&buf); err != nil || n != int64(len(img)) {
		t.Fatalf("ReadFrom = %d, %v; want %d, nil", n, err, len(img))
	}
	requireSameTable(t, restored, tbl)
	return restored, img
}

func TestCheckpointRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Table
	}{
		{"empty", func(*testing.T) *Table { return New(64, 16) }},
		{"one bucket", func(t *testing.T) *Table {
			// 8 bucket words: a single run shorter than 64.
			tbl := New(1, 1)
			fill(t, tbl, 5)
			return tbl
		}},
		{"entries", func(t *testing.T) *Table {
			tbl := New(32, 64)
			fill(t, tbl, 100)
			return tbl
		}},
		{"grown past segment 0", func(t *testing.T) *Table {
			tbl := New(2, 3)
			fill(t, tbl, 100)
			// Segments of 3, 6 and 12 buckets: the cursor ends in the third.
			if next := tbl.overflowNext.Load(); next <= 9 {
				t.Fatalf("overflowNext = %d, want past segments 0 and 1", next)
			}
			return tbl
		}},
		{"tentative words", func(t *testing.T) *Table {
			tbl := New(32, 64)
			fill(t, tbl, 40)
			tbl.buckets[3] = pack(17, 0, true)
			tbl.buckets[len(tbl.buckets)-2] = pack(9, 0, true)
			return tbl
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := tc.build(t)
			roundTrip(t, tbl)
		})
	}

	// Restored entries answer lookups with their chain heads.
	tbl := New(32, 64)
	hashes := fill(t, tbl, 100)
	restored, _ := roundTrip(t, tbl)
	for i, h := range hashes {
		s, ok := restored.FindEntry(h)
		if !ok {
			t.Fatalf("hash %d missing after restore", i)
		}
		if got := s.Address(); got != uint64(64+i*16) {
			t.Fatalf("hash %d address = %d, want %d", i, got, 64+i*16)
		}
	}
}

// TestRestoredTentativeEntryIsFreed: a tentative entry in an image belongs
// to an insert that did not survive the restart. Restoring it as it is left
// FindOrCreate on its tag spinning forever; the restore frees its slot and
// keeps every other word.
func TestRestoredTentativeEntryIsFreed(t *testing.T) {
	tbl := New(32, 64)
	fill(t, tbl, 40)
	h := HashProperty(7, []byte("claimed before the crash"))
	bkt, tag := splitHash(h, tbl.mask)
	words := tbl.bucketWords(bkt)
	slot := slices.Index(words[:entriesPerBucket], 0)
	if slot < 0 {
		t.Fatal("test bucket has no free slot")
	}
	words[slot] = pack(tag, 0, true)
	want := slices.Clone(tbl.buckets)
	want[int(bkt)*wordsPerBucket+slot] = 0

	restored, _ := roundTrip(t, tbl)
	if !slices.Equal(restored.buckets, want) || !slices.Equal(overflowOf(restored), overflowOf(tbl)) {
		t.Fatal("restore changed words other than the tentative entry")
	}
	done := make(chan error, 1)
	go func() {
		_, err := restored.FindOrCreate(h)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FindOrCreate spins on the restored tentative entry")
	}
	if s, ok := restored.FindEntry(h); !ok || s.Address() != 0 {
		t.Fatalf("FindEntry after FindOrCreate = %v, %v; want a new entry at address 0", s.Address(), ok)
	}
}

// TestTableImageIsSparse: an image costs its entries plus one mask word per
// 64 words of table, not the table's capacity.
func TestTableImageIsSparse(t *testing.T) {
	tbl := New(1<<12, 1<<10)
	n := len(fill(t, tbl, 100))
	_, img := roundTrip(t, tbl)
	overflowUsed := int(tbl.overflowNext.Load()) * wordsPerBucket
	st := tbl.Stats()
	want := 8*(headerWords+len(tbl.buckets)/runWords+(overflowUsed+runWords-1)/runWords+st.UsedEntries+st.OverflowBuckets) + sealBytes
	if len(img) != want {
		t.Fatalf("image of %d entries is %d bytes, want %d", n, len(img), want)
	}
}

// denseImage writes tbl in the unsealed layout that preceded the sparse
// image: bucket and overflow lengths, overflowNext, then every word. Its
// overflow pool is the segments in index order.
func denseImage(tbl *Table) []byte {
	overflow := overflowOf(tbl)
	img := binary.LittleEndian.AppendUint64(nil, uint64(len(tbl.buckets)))
	img = binary.LittleEndian.AppendUint64(img, uint64(len(overflow)))
	img = binary.LittleEndian.AppendUint64(img, tbl.overflowNext.Load())
	for _, arr := range [][]uint64{tbl.buckets, overflow} {
		for _, w := range arr {
			img = binary.LittleEndian.AppendUint64(img, w)
		}
	}
	return img
}

func TestDenseImageStillReadable(t *testing.T) {
	tbl := New(16, 8)
	fill(t, tbl, 120)
	if tbl.Stats().OverflowBuckets == 0 {
		t.Fatal("want a table with overflow chains")
	}
	restored := New(1, 1)
	if _, err := restored.ReadFrom(bytes.NewReader(denseImage(tbl))); err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, restored, tbl)
}

// TestLinkPastCursorMovesCursor: an image whose chain links an overflow
// bucket at or past its cursor — a dense image written while an insert
// linked one — restores, and the cursor resumes past the link so it never
// hands that bucket out again.
func TestLinkPastCursorMovesCursor(t *testing.T) {
	denseWords := make([]uint64, 3+8+3*8)
	denseWords[0], denseWords[1], denseWords[2] = 8, 3*8, 2
	denseWords[3+entriesPerBucket] = 2
	images := map[string][]byte{
		"dense":  le(denseWords...),
		"sealed": sealed(le(imageMagic, 8, 3*8, 2, 1<<entriesPerBucket, 2, 0)),
	}
	for name, img := range images {
		tbl := New(1, 1)
		if _, err := tbl.ReadFrom(bytes.NewReader(img)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if next := tbl.overflowNext.Load(); next != 3 {
			t.Fatalf("%s: overflowNext = %d, want 3, past the link to bucket 2", name, next)
		}
	}
}

// TestExhaustedPoolImageStillReadable: a table whose overflow pool was
// fixed kept counting its cursor past an exhausted pool, but its image holds
// only the pool. It restores with the pool as segment 0 and the cursor at
// its end, and grows from there.
func TestExhaustedPoolImageStillReadable(t *testing.T) {
	// One bucket linking to overflow bucket 1, the last of a 2-bucket pool,
	// which holds one entry; the cursor reads 5.
	entry := pack(3, 64, false)
	img := sealed(le(imageMagic, 8, 2*8, 5, 1<<entriesPerBucket, 1, 1<<8, entry))
	tbl := New(1, 1)
	if _, err := tbl.ReadFrom(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	if next := tbl.overflowNext.Load(); next != 2 {
		t.Fatalf("overflowNext = %d, want 2, the end of the pool", next)
	}
	if got := overflowOf(tbl)[8]; got != entry {
		t.Fatalf("overflow bucket 1 holds %#x, want %#x", got, entry)
	}
	fill(t, tbl, 40)
	roundTrip(t, tbl)
}

// le encodes words little-endian; sealed adds the image seal.
func le(words ...uint64) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

func sealed(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

func TestCorruptImageRejected(t *testing.T) {
	tbl := New(4, 4)
	fill(t, tbl, 40)
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	dense := denseImage(tbl)
	// rewrite sets word i of a dense image; its three header words come first.
	rewrite := func(b []byte, i int, w uint64) []byte {
		b = slices.Clone(b)
		binary.LittleEndian.PutUint64(b[i*8:], w)
		return b
	}
	link := func(bucket int) int { return 3 + bucket*wordsPerBucket + entriesPerBucket }
	const huge = uint64(1) << 61

	// A one-bucket table with one overflow bucket, empty: the shape the
	// sealed cases below corrupt one field or run at a time.
	if _, err := New(1, 1).ReadFrom(bytes.NewReader(sealed(le(imageMagic, 8, 8, 1, 0, 0)))); err != nil {
		t.Fatalf("hand-built image rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":                       nil,
		"truncated":                   img[:len(img)-1],
		"trailing byte":               append(slices.Clone(img), 0),
		"dense 2^61 bucket words":     le(huge, 8, 1),
		"dense 3 buckets":             append(le(24, 8, 1), make([]byte, 32*8)...),
		"dense overflow past length":  rewrite(dense, 1, huge),
		"dense link outside the pool": rewrite(dense, link(0), 4),
		"dense link named twice":      rewrite(rewrite(dense, link(0), 1), link(1), 1),
		"dense cursor zero":           rewrite(dense, 2, 0),
		"sealed 2^61 bucket words":    sealed(le(imageMagic, huge, 8, 1, 0, 0)),
		"sealed 3 buckets":            sealed(le(imageMagic, 24, 8, 1, 0, 0)),
		"sealed 2^61 overflow words":  sealed(le(imageMagic, 8, huge, 1, 0, 0)),
		"sealed mask past the array":  sealed(le(imageMagic, 8, 8, 1, 1<<8, 1, 0)),
		"sealed mask on a zero word":  sealed(le(imageMagic, 8, 8, 1, 1, 0, 0)),
		"sealed runs missing":         sealed(le(imageMagic, 8, 8, 1)),
		"sealed trailing word":        sealed(le(imageMagic, 8, 8, 1, 0, 0, 0)),
		"sealed link outside pool":    sealed(le(imageMagic, 8, 16, 1, 1<<7, 2, 0)),
	}
	for i := range img {
		flipped := slices.Clone(img)
		flipped[i] ^= 0x10
		cases[fmt.Sprintf("flipped byte %d", i)] = flipped
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			restored := New(2, 2)
			fill(t, restored, 3)
			before := denseImage(restored)
			if _, err := restored.ReadFrom(bytes.NewReader(b)); !errors.Is(err, errCorruptImage) {
				t.Fatalf("ReadFrom = %v, want a corrupt-image error", err)
			}
			if !bytes.Equal(denseImage(restored), before) {
				t.Fatal("a rejected image changed the table")
			}
		})
	}
}

// FuzzTableImage: inserts driven by the input round-trip word for word; no
// input panics ReadFrom, whether raw or sealed behind a valid header as the
// runs of a small table; and an image ReadFrom accepts leaves a table whose
// chains a lookup can walk.
func FuzzTableImage(f *testing.F) {
	tbl := New(4, 4)
	fill(f, tbl, 40)
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	header := le(imageMagic, 4*wordsPerBucket, 4*wordsPerBucket, 4)
	f.Add(buf.Bytes())
	f.Add(denseImage(tbl))
	f.Add(buf.Bytes()[len(header) : buf.Len()-sealBytes])
	f.Add([]byte("insert these bytes as hashes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := New(4, 4)
		for b := data; len(b) >= 8; b = b[8:] {
			if _, err := tbl.FindOrCreate(binary.LittleEndian.Uint64(b)); err != nil {
				t.Fatal(err)
			}
		}
		roundTrip(t, tbl)

		for _, img := range [][]byte{data, sealed(append(slices.Clone(header), data...))} {
			got := New(1, 1)
			if _, err := got.ReadFrom(bytes.NewReader(img)); err != nil {
				continue
			}
			got.Stats()
			got.FindEntry(HashProperty(1, data))
			roundTrip(t, got)
		}
	})
}
