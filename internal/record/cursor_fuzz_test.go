package record_test

import (
	"fmt"
	"io"
	"testing"

	"fishstore"
	"fishstore/internal/hlog"
	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/storage"
	"fishstore/internal/wordio"
)

const fuzzPageBits = 12

// imageDevice is a read-only device holding one log image: a read past its
// end is short, as a torn flush leaves the device.
type imageDevice []byte

func (d imageDevice) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(d)) {
		return 0, io.EOF
	}
	n := copy(p, d[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (imageDevice) WriteAt([]byte, int64) (int, error) { return 0, io.ErrShortWrite }
func (imageDevice) Close() error                       { return nil }

// flushedPage returns page 0 of a store's device after ingesting n records.
func flushedPage(f *testing.F, n int) []byte {
	mem := storage.NewMem()
	s, err := fishstore.Open(fishstore.Options{Device: mem, PageBits: fuzzPageBits, MemPages: 4})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.RegisterPSF(psf.Projection("repo")); err != nil {
		f.Fatal(err)
	}
	sess := s.NewSession()
	var batch [][]byte
	for i := 0; i < n; i++ {
		batch = append(batch, fmt.Appendf(nil, `{"id": %d, "repo": "r%d"}`, i, i%3))
	}
	if _, err := sess.Ingest(batch); err != nil {
		f.Fatal(err)
	}
	sess.Close()
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	page := make([]byte, 1<<fuzzPageBits)
	if _, err := mem.ReadAt(page, 0); err != nil {
		f.Fatal(err)
	}
	return page
}

// FuzzPageCursor walks arbitrary images of log page 0 with a record.Cursor,
// seeded with real flushed pages, whole, torn and bit-flipped. The cursor
// must never read past the page or the image's data, must give every stop a
// reason, and must yield strictly increasing addresses. Where VerifyDevice
// finds the image clean, it must end the log where the cursor's walk ends:
// at its stop, or at the first invisible record, the durable frontier.
func FuzzPageCursor(f *testing.F) {
	full := flushedPage(f, 200) // fills the page; the walk reaches its end
	short := flushedPage(f, 5)  // ends in unwritten words
	f.Add(full, uint16(0))
	f.Add(short, uint16(0))
	f.Add(short[:300], uint16(0)) // torn mid-record
	f.Add(full, uint16(200))
	flipped := append([]byte(nil), short...)
	flipped[hlog.BeginAddress+7] ^= 0x80 // the first record loses its visible bit
	f.Add(flipped, uint16(0))
	f.Add([]byte{}, uint16(0))

	const pageWords = 1 << fuzzPageBits / 8
	f.Fuzz(func(t *testing.T, image []byte, limit uint16) {
		if len(image) > pageWords*8 {
			image = image[:pageWords*8]
		}
		// The page's words, with a guard word past its end that the cursor
		// cannot reach: its slice stops at the page.
		words := make([]uint64, pageWords+1)
		copy(wordio.Bytes(words), image)
		words[pageWords] = ^uint64(0)
		first := int(hlog.BeginAddress / 8)
		avail := len(image)/8 - first
		limitAddr := uint64(limit)
		if limit == 0 {
			limitAddr = 1 << fuzzPageBits
		}

		c := record.NewCursor(words[first:pageWords:pageWords], hlog.BeginAddress, avail, limitAddr)
		prev, frontier := uint64(0), uint64(0)
		var addr uint64
		for {
			a, v, ok := c.Next()
			addr = a
			if !ok {
				break
			}
			if a <= prev && prev != 0 {
				t.Fatalf("address %d after %d", a, prev)
			}
			prev = a
			end := a/8 + uint64(len(v.Words))
			if a < hlog.BeginAddress || a >= limitAddr || len(v.Words) == 0 ||
				end > pageWords || int(end) > len(image)/8 {
				t.Fatalf("record at %d of %d words outside the page's data (%d bytes, limit %d)",
					a, len(v.Words), len(image), limitAddr)
			}
			if h := v.Header(); frontier == 0 && !h.Filler() && !h.Visible() {
				frontier = a
			}
		}
		stop := c.Stop()
		if stop < record.StopUnwritten || stop > record.StopLimit {
			t.Fatalf("walk stopped at %d without a reason (%d)", addr, stop)
		}
		if again, _, ok := c.Next(); ok || again != addr || c.Stop() != stop {
			t.Fatalf("a stopped cursor moved: %d %v %d", again, ok, c.Stop())
		}

		var to uint64
		if limit != 0 {
			to = limitAddr
		}
		rep, err := fishstore.VerifyDevice(imageDevice(image), fuzzPageBits, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			return
		}
		want := addr
		if frontier != 0 {
			want = frontier
		}
		if stop == record.StopLimit && limit == 0 && frontier == 0 {
			want = 1 << fuzzPageBits // the walk goes on to the next page, past the image
		}
		if rep.End != want {
			t.Fatalf("VerifyDevice ends the clean log at %d, the cursor at %d (%v stop)", rep.End, want, stop)
		}
	})
}
