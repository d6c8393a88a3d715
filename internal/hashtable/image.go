package hashtable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync/atomic"
)

// The table image is the hash-index half of a checkpoint (Appendix E). It
// holds what the table holds, not its capacity; all words are little-endian:
//
//	header  imageMagic, len(buckets), words in overflow segment 0, overflowNext
//	body    the bucket array, then the overflow buckets the cursor has handed
//	        out (overflowNext × 8 words) segment by segment, each as runs of
//	        64 words: a mask of the run's non-zero words, then those words
//	seal    CRC32-C of header and body (4 bytes)
//
// A fixed pool's image is alike: the pool is segment 0, the cursor may pass it.
//
// The image before it was dense: len(buckets), len(overflow), overflowNext,
// then every word of both arrays, unsealed. ReadFrom still decodes that
// layout as a table with one overflow segment; its first word is a multiple
// of wordsPerBucket and imageMagic is not.
const (
	imageMagic   = 0x3130474d49485346 // "FSHIMG01"
	headerWords  = 4
	runWords     = 64
	sealBytes    = 4
	chunkBytes   = 64 << 10
	denseHdrSize = 24
	// maxArrayWords keeps a header's segment 0 size from overflowing the
	// arithmetic below and make's length check. Only the seal vouches for
	// it; the body's runs must reach a later segment before it is made.
	maxArrayWords = 1 << 45
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errCorruptImage = errors.New("hashtable: corrupt table image")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCorruptImage}, args...)...)
}

// imageWriter stages the image in chunks so the writer sees few large calls,
// sealing each chunk as it leaves.
type imageWriter struct {
	w     io.Writer
	buf   []byte
	crc   uint32
	total int64
	err   error
}

func (iw *imageWriter) word(v uint64) { iw.buf = binary.LittleEndian.AppendUint64(iw.buf, v) }

func (iw *imageWriter) flush() {
	if iw.err != nil || len(iw.buf) == 0 {
		return
	}
	iw.crc = crc32.Update(iw.crc, castagnoli, iw.buf)
	n, err := iw.w.Write(iw.buf)
	iw.total += int64(n)
	iw.err = err
	iw.buf = iw.buf[:0]
}

// runs encodes arr as masked runs. Each word is loaded once, atomically, and
// staged before its run's mask is written, so the mask matches the words.
func (iw *imageWriter) runs(arr []uint64) {
	var run [runWords]uint64
	for off := 0; off < len(arr) && iw.err == nil; off += runWords {
		n := min(runWords, len(arr)-off)
		var mask uint64
		for i := 0; i < n; i++ {
			v := atomic.LoadUint64(&arr[off+i])
			run[i] = v
			if v != 0 {
				mask |= 1 << i
			}
		}
		iw.word(mask)
		for m := mask; m != 0; m &= m - 1 {
			iw.word(run[bits.TrailingZeros64(m)])
		}
		if len(iw.buf) >= chunkBytes {
			iw.flush()
		}
	}
}

// WriteTo writes the table image (Appendix E). No insert may run
// concurrently: the cursor is read before the arrays, so a bucket linked
// meanwhile would lie past the image's overflow prefix, and an entry
// created meanwhile may be missing. Store.Checkpoint holds the ingestion
// barrier, which every table writer takes shared.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	iw := &imageWriter{w: w, buf: make([]byte, 0, chunkBytes+(runWords+1)*8)}
	next := t.overflowNext.Load()
	for _, v := range [headerWords]uint64{imageMagic, uint64(len(t.buckets)), t.base * wordsPerBucket, next} {
		iw.word(v)
	}
	iw.runs(t.buckets)
	for k, start := 0, uint64(0); start < next; k, start = k+1, start+t.base<<k {
		iw.runs((*t.overflow[k].Load())[:min(next-start, t.base<<k)*wordsPerBucket])
	}
	iw.flush()
	if iw.err != nil {
		return iw.total, iw.err
	}
	var seal [sealBytes]byte
	binary.LittleEndian.PutUint32(seal[:], iw.crc)
	n, err := w.Write(seal[:])
	return iw.total + int64(n), err
}

// ReadFrom restores a table image written by WriteTo, or a dense image from
// before it, replacing t's contents. The image is read whole and checked —
// seal, header and every chain link — before anything is installed, so a
// corrupt image returns an error and leaves t as it was. Tentative entries
// are not restored (see install).
func (t *Table) ReadFrom(r io.Reader) (int64, error) {
	img, err := io.ReadAll(r)
	n := int64(len(img))
	if err != nil {
		return n, err
	}
	var d decoded
	if len(img) >= 8 && binary.LittleEndian.Uint64(img) == imageMagic {
		err = d.sparse(img)
	} else {
		err = d.dense(img)
	}
	if err == nil && d.maxLink >= d.capacity {
		err = corrupt("chain link %d past the %d overflow buckets the image holds", d.maxLink, d.capacity)
	}
	if err != nil {
		return n, err
	}
	t.buckets, t.base = d.buckets, d.base
	t.mask = uint64(len(d.buckets)/wordsPerBucket - 1)
	for k := range t.overflow {
		t.overflow[k].Store(d.segs[k])
	}
	// A cursor past the segments is an exhausted pool's; nothing past the
	// pool was ever linked.
	t.overflowNext.Store(max(min(d.next, d.capacity), d.maxLink+1))
	return n, nil
}

// decoded is an image being restored into fresh arrays.
type decoded struct {
	buckets    []uint64
	segs       [maxSegments]*[]uint64 // the overflow segments the image reaches
	base, next uint64
	capacity   uint64   // overflow buckets in segs
	linked     []uint64 // bitmap of overflow buckets some chain links to
	maxLink    uint64   // highest overflow bucket a chain links to
}

// segment allocates overflow segment k and returns its words.
func (d *decoded) segment(k int) []uint64 {
	seg := make([]uint64, d.base<<k*wordsPerBucket)
	d.segs[k], d.capacity = &seg, d.capacity+d.base<<k
	return seg
}

// shape checks the header's sizes and allocates the bucket array. words
// bounds how many words the image can describe, and with them the cursor.
func (d *decoded) shape(nb, no, next, words uint64) error {
	if nb < wordsPerBucket || nb%wordsPerBucket != 0 || bits.OnesCount64(nb/wordsPerBucket) != 1 {
		return corrupt("bucket array of %d words is not a power of two of buckets", nb)
	}
	if no < wordsPerBucket || no%wordsPerBucket != 0 {
		return corrupt("overflow segment of %d words is not whole buckets", no)
	}
	if nb > words || no > maxArrayWords {
		return corrupt("header claims %d bucket and %d overflow words, more than the image can hold", nb, no)
	}
	d.base = no / wordsPerBucket
	if next < 1 || next > words/wordsPerBucket+d.base {
		return corrupt("overflow cursor %d outside [1, %d]", next, words/wordsPerBucket+d.base)
	}
	d.buckets = make([]uint64, nb)
	d.next = next
	k, _ := segmentOf(d.base, next-1)
	d.linked = make([]uint64, (d.base<<(k+1)-d.base+63)/64) // the segments the cursor reaches
	return nil
}

// install stores word w at index i of arr. A bucket's last word links to an
// overflow bucket; each link must name a bucket the image holds (ReadFrom
// checks the highest) that no other link names, so chains cannot loop.
//
// A tentative entry is dropped, leaving its slot free: the insert that
// claimed it did not survive the restart, so nothing would ever finalize
// it, and FindOrCreate would spin on its tag forever.
//
// A link may lie past the cursor: a dense image was written with inserts
// running, so a bucket linked after its cursor was read is in it. ReadFrom
// moves the cursor past the highest link, so the cursor never hands out a
// linked bucket again.
func (d *decoded) install(arr []uint64, i int, w uint64) error {
	link := i%wordsPerBucket == entriesPerBucket
	if !link && w&tentativeBit != 0 {
		w = 0
	}
	arr[i] = w
	if !link || w == 0 {
		return nil
	}
	if w >= uint64(len(d.linked)*64) {
		return corrupt("chain link %d past the overflow buckets the cursor reaches", w)
	}
	if d.linked[w/64]&(1<<(w%64)) != 0 {
		return corrupt("overflow bucket %d linked twice", w)
	}
	d.linked[w/64] |= 1 << (w % 64)
	d.maxLink = max(d.maxLink, w)
	return nil
}

func (d *decoded) sparse(img []byte) error {
	if len(img) < (headerWords*8 + sealBytes) {
		return corrupt("%d bytes is shorter than a header and seal", len(img))
	}
	body, seal := img[:len(img)-sealBytes], img[len(img)-sealBytes:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(seal) {
		return corrupt("seal mismatch")
	}
	var h [headerWords]uint64
	for i := range h {
		h[i] = binary.LittleEndian.Uint64(body[i*8:])
	}
	body = body[headerWords*8:]
	nb, no, next := h[1], h[2], h[3]
	// Every run costs at least its mask word.
	if err := d.shape(nb, no, next, uint64(len(body)/8)*runWords); err != nil {
		return err
	}
	body, err := d.runs(d.buckets, body)
	// A segment is made once the runs before it (a byte per bucket or
	// more) decoded, so no segment but the first outgrows the image.
	for k := 0; err == nil && d.capacity < next; k++ {
		if k > 0 && len(body) == 0 {
			break // an exhausted pool's cursor counted past it
		}
		start := d.capacity
		body, err = d.runs(d.segment(k)[:min(next-start, d.base<<k)*wordsPerBucket], body)
	}
	if err != nil {
		return err
	}
	if len(body) != 0 {
		return corrupt("%d trailing bytes", len(body))
	}
	return nil
}

// runs decodes arr from masked runs at the front of body and returns the rest.
func (d *decoded) runs(arr []uint64, body []byte) ([]byte, error) {
	for off := 0; off < len(arr); off += runWords {
		if len(body) < 8 {
			return nil, corrupt("image ends inside its runs")
		}
		mask := binary.LittleEndian.Uint64(body)
		body = body[8:]
		if n := len(arr) - off; n < runWords && mask>>n != 0 {
			return nil, corrupt("run mask %#x past the array end", mask)
		}
		if len(body) < 8*bits.OnesCount64(mask) {
			return nil, corrupt("image ends inside a run")
		}
		for m := mask; m != 0; m &= m - 1 {
			w := binary.LittleEndian.Uint64(body)
			body = body[8:]
			if w == 0 {
				return nil, corrupt("run mask %#x marks a zero word", mask)
			}
			if err := d.install(arr, off+bits.TrailingZeros64(m), w); err != nil {
				return nil, err
			}
		}
	}
	return body, nil
}

// dense decodes the unsealed layout that preceded the sparse image.
func (d *decoded) dense(img []byte) error {
	if len(img) < denseHdrSize {
		return corrupt("%d bytes is shorter than a header", len(img))
	}
	nb := binary.LittleEndian.Uint64(img[0:])
	no := binary.LittleEndian.Uint64(img[8:])
	next := binary.LittleEndian.Uint64(img[16:])
	words := uint64(len(img)-denseHdrSize) / 8
	if len(img)%8 != 0 || nb > words || no != words-nb {
		return corrupt("%d-byte image for %d bucket and %d overflow words", len(img), nb, no)
	}
	if err := d.shape(nb, no, next, words); err != nil {
		return err
	}
	body := img[denseHdrSize:]
	for _, arr := range [][]uint64{d.buckets, d.segment(0)} {
		for i := range arr {
			if err := d.install(arr, i, binary.LittleEndian.Uint64(body)); err != nil {
				return err
			}
			body = body[8:]
		}
	}
	return nil
}
