// Package record implements FishStore's physical record layout (Fig 6 of
// the paper). A record occupies consecutive 8-byte words on the hybrid log:
//
//	word 0            header: flags, version, #ptrs, size, value-region size
//	words 1..2k       k key pointers, 16 bytes each
//	value region      optional, holds PSF values evaluated at ingestion time
//	payload region    the raw record bytes (zero-padded to a word boundary)
//
// Key pointers — not records — form the hash chains of the subset hash
// index: each key pointer holds the address of the *key pointer* of the
// previous record with the same property, plus enough information (PSF id
// and a way to reach the evaluated value) for a chain reader to filter out
// hash collisions without consulting anything but the record itself.
//
// All fields that participate in concurrency (the header word's visibility
// bit, each key pointer's first word holding the previous address) are
// single words mutated only with sync/atomic operations.
package record

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"fishstore/internal/wordio"
)

// castagnoli is the CRC32-C polynomial table used for record checksums
// (hardware-accelerated on amd64/arm64 via hash/crc32).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Mode discriminates key pointer classes (Fig 6, "sample key pointer
// constructions").
type Mode uint8

const (
	// ModeBool inlines a boolean PSF value into the key pointer.
	ModeBool Mode = 0
	// ModePayload points at the value inside the raw payload (field
	// projection PSFs, where the value is a field of the record itself).
	ModePayload Mode = 1
	// ModeValueRegion points at a value materialized in the record's
	// optional value region (general PSFs whose value is not a substring of
	// the payload).
	ModeValueRegion Mode = 2
)

// Address is a 48-bit logical address on the hybrid log. 0 is the nil chain
// terminator.
const InvalidAddress uint64 = 0

const (
	// Header word layout.
	hdrSizeBits  = 24
	hdrSizeMask  = uint64(1)<<hdrSizeBits - 1
	hdrPtrsShift = 24
	hdrPtrsBits  = 15
	hdrPtrsMask  = (uint64(1)<<hdrPtrsBits - 1) << hdrPtrsShift
	// hdrChecksumBit is the record-format version bit (v1): the record
	// carries a trailing checksum word sealed at flush time. v0 records
	// (bit clear) predate checksums; readers accept them unchecked. The bit
	// was carved out of the pointer-count field, which v0 never filled past
	// 15 bits, so v0 headers decode identically under both layouts.
	hdrChecksumBit = uint64(1) << 39
	hdrPadShift    = 40
	hdrPadMask     = uint64(7) << hdrPadShift
	hdrValShift    = 43
	hdrValBits     = 13
	hdrValMask     = (uint64(1)<<hdrValBits - 1) << hdrValShift
	hdrVerShift    = 56
	hdrVerMask     = uint64(0xf) << hdrVerShift
	hdrIndirectBit = uint64(1) << 60
	hdrFillerBit   = uint64(1) << 61
	hdrInvalidBit  = uint64(1) << 62
	hdrVisibleBit  = uint64(1) << 63
	maxPointers    = 1<<hdrPtrsBits - 1
	maxValueWords  = 1<<hdrValBits - 1
	maxSizeWords   = 1<<hdrSizeBits - 1
	maxPtrOffWords = 1<<14 - 1

	// Key pointer word A layout: prevAddress(48) | mode(2) | offsetWords(14).
	kpAddrMask  = uint64(1)<<48 - 1
	kpModeShift = 48
	kpModeMask  = uint64(3) << kpModeShift
	kpOffShift  = 50

	// Key pointer word B layout: psfID(16) | mode-specific.
	kpPSFMask     = uint64(0xffff)
	kpBoolBit     = uint64(1) << 16
	kpValOffShift = 16
	kpValOffBits  = 24
	kpValOffMask  = (uint64(1)<<kpValOffBits - 1) << kpValOffShift
	kpValSzShift  = 40
	kpValSzBits   = 24
	kpValSzMask   = (uint64(1)<<kpValSzBits - 1) << kpValSzShift

	// sealMagic occupies the high 32 bits of a sealed checksum trailer. An
	// unsealed trailer is all-zero (Spec.Write clears it), so any v1 record
	// that reaches the device without passing through the flush-time sealer
	// fails validation rather than passing vacuously. Its CRC covers the
	// whole header word and the body: no header bit changes once a record is
	// visible (Abandon sets the invalid bit together with the visible one),
	// and the sealer seals only visible records.
	sealMagic = uint64(0x0EA35EA1) << 32

	// maskedSealMagic marks a trailer written while seals skipped the
	// visibility and invalid bits (hdrMaskedSeal); bodySealMagic one written
	// before seals covered the header, whose CRC covers the body alone. Such
	// logs stay readable. The three magics lie 16 bits apart or more, and
	// bodySealMagic is maskedSealMagic complemented.
	maskedSealMagic = uint64(0x0EA3A15E) << 32
	bodySealMagic   = uint64(0xF15C5EA1) << 32

	sealCRCMask = uint64(1)<<32 - 1

	// hdrMaskedSeal selects the header bits a maskedSealMagic trailer
	// covers.
	hdrMaskedSeal = ^(hdrVisibleBit | hdrInvalidBit)
)

// WordsPerPointer is the size of one key pointer in words.
const WordsPerPointer = 2

// HeaderWords is the size of the record header in words.
const HeaderWords = 1

// Header is a record's header word; convert a loaded word with Header(w).
// Its fields are read through the accessor methods below, so a decode is a
// shift and a mask on a register. Go keeps a struct in registers only up to
// four fields: a struct with one field per header field would be built on
// the stack at every decode, and the per-record scan kernels would pay a
// store-forwarding stall reading it back.
type Header uint64

// SizeWords returns the total record size in words, including the header.
func (h Header) SizeWords() int { return int(uint64(h) & hdrSizeMask) }

// NumPtrs returns the number of key pointers.
func (h Header) NumPtrs() int { return int(uint64(h) & hdrPtrsMask >> hdrPtrsShift) }

// PayloadPad returns the number of zero-padding bytes at the end of the
// payload.
func (h Header) PayloadPad() int { return int(uint64(h) & hdrPadMask >> hdrPadShift) }

// ValueWords returns the size of the optional value region in words.
func (h Header) ValueWords() int { return int(uint64(h) & hdrValMask >> hdrValShift) }

// Version returns the checkpoint version (mod 16).
func (h Header) Version() uint8 { return uint8(uint64(h) & hdrVerMask >> hdrVerShift) }

// Checksum reports format v1: the record ends with a sealed checksum word.
func (h Header) Checksum() bool { return uint64(h)&hdrChecksumBit != 0 }

// Indirect reports a historical index record: its payload is a log address.
func (h Header) Indirect() bool { return uint64(h)&hdrIndirectBit != 0 }

// Filler reports a page-fill hole, not a record.
func (h Header) Filler() bool { return uint64(h)&hdrFillerBit != 0 }

// Invalid reports an abandoned allocation (View.Abandon).
func (h Header) Invalid() bool { return uint64(h)&hdrInvalidBit != 0 }

// Visible reports a record fully ingested and linked.
func (h Header) Visible() bool { return uint64(h)&hdrVisibleBit != 0 }

// TrailerWords returns the number of trailing checksum words (1 for format
// v1 records, 0 for v0), already included in SizeWords.
func (h Header) TrailerWords() int {
	if h.Checksum() {
		return 1
	}
	return 0
}

// newHeader builds the header word of an unpublished record (visible and
// invalid bits clear). Fields are masked to their widths.
func newHeader(sizeWords, numPtrs, pad, valueWords int, version uint8, checksum, indirect bool) Header {
	w := uint64(sizeWords) & hdrSizeMask
	w |= uint64(numPtrs) << hdrPtrsShift & hdrPtrsMask
	w |= uint64(pad) << hdrPadShift & hdrPadMask
	w |= uint64(valueWords) << hdrValShift & hdrValMask
	w |= uint64(version) << hdrVerShift & hdrVerMask
	if checksum {
		w |= hdrChecksumBit
	}
	if indirect {
		w |= hdrIndirectBit
	}
	return Header(w)
}

// FillerWord builds a header word describing a page-fill hole of sizeWords
// words (used to seal the unusable tail of a page).
func FillerWord(sizeWords int) uint64 {
	return uint64(sizeWords)&hdrSizeMask | hdrFillerBit
}

// KeyPointer is one 16-byte key pointer as its two words: A, the CAS word
// (previous address, mode, back-offset), and B (PSF id and the mode's value
// reference). Like Header, it is read through accessors, in registers.
type KeyPointer struct {
	A, B uint64
}

// PrevAddress returns the address of the previous key pointer in this chain.
func (kp KeyPointer) PrevAddress() uint64 { return kp.A & kpAddrMask }

// Mode returns the key pointer's class.
func (kp KeyPointer) Mode() Mode { return Mode(kp.A & kpModeMask >> kpModeShift) }

// OffsetWords returns the distance in words from the record header to this
// key pointer.
func (kp KeyPointer) OffsetWords() int { return int(kp.A >> kpOffShift) }

// PSFID returns the naming-service id of the PSF.
func (kp KeyPointer) PSFID() uint16 { return uint16(kp.B & kpPSFMask) }

// BoolValue returns a ModeBool pointer's inline value.
func (kp KeyPointer) BoolValue() bool { return kp.B&kpBoolBit != 0 }

// ValOffset returns the byte offset of a ModePayload or ModeValueRegion
// pointer's value within its region.
func (kp KeyPointer) ValOffset() int { return int(kp.B & kpValOffMask >> kpValOffShift) }

// ValSize returns the byte size of a ModePayload or ModeValueRegion
// pointer's value.
func (kp KeyPointer) ValSize() int { return int(kp.B & kpValSzMask >> kpValSzShift) }

// packA encodes the CAS word (word A) of a key pointer.
func packA(prev uint64, mode Mode, offsetWords int) uint64 {
	return prev&kpAddrMask | uint64(mode)<<kpModeShift&kpModeMask | uint64(offsetWords)<<kpOffShift
}

// packB encodes word B.
func packB(ps PointerSpec) uint64 {
	w := uint64(ps.PSFID)
	switch ps.Mode {
	case ModeBool:
		if ps.BoolValue {
			w |= kpBoolBit
		}
	case ModePayload, ModeValueRegion:
		w |= uint64(ps.ValOffset) << kpValOffShift & kpValOffMask
		w |= uint64(ps.ValSize) << kpValSzShift & kpValSzMask
	}
	return w
}

// SwapPrevAddress CASes word A (at wordsA) from old to the same word with
// prevAddress replaced by newPrev. old must be the exact previously-loaded
// word value.
func SwapPrevAddress(wordA *uint64, old uint64, newPrev uint64) bool {
	newWord := (old &^ kpAddrMask) | (newPrev & kpAddrMask)
	return atomic.CompareAndSwapUint64(wordA, old, newWord)
}

// SetPrevAddress unconditionally rewrites word A's previous address,
// preserving mode and offset. Used by the owner of a not-yet-linked key
// pointer while it hunts for its splice point.
func SetPrevAddress(wordA *uint64, newPrev uint64) {
	for {
		old := atomic.LoadUint64(wordA)
		if atomic.CompareAndSwapUint64(wordA, old, (old&^kpAddrMask)|(newPrev&kpAddrMask)) {
			return
		}
	}
}

// PointerSpec describes one key pointer to be written at ingestion time.
type PointerSpec struct {
	PSFID     uint16
	Mode      Mode
	BoolValue bool
	ValOffset int // for ModePayload: offset within payload; for ModeValueRegion: offset within value region
	ValSize   int
}

// Spec describes a record to be allocated and written.
type Spec struct {
	Payload     []byte
	Pointers    []PointerSpec
	ValueRegion []byte // optional materialized PSF values
	Version     uint8
	// Indirect marks a historical index record (Appendix A): the payload is
	// an 8-byte little-endian log address of the actual data record.
	Indirect bool
	// Checksum reserves a trailing checksum word (format v1). The word is
	// written as zero; the hybrid log seals it (View.Seal) when the record
	// is flushed, after the four-phase ingest protocol has finished.
	Checksum bool
}

// SizeWords returns the number of log words the record will occupy:
// 1 header + 2 per pointer + value region + payload (padded) + optional
// checksum trailer. This is the byte formula 8 + 16k + ceil(s/8)*8 from
// §6.2 when the value region is empty and checksums are disabled.
func (s *Spec) SizeWords() int {
	n := HeaderWords + WordsPerPointer*len(s.Pointers) +
		wordio.WordsFor(len(s.ValueRegion)) + wordio.WordsFor(len(s.Payload))
	if s.Checksum {
		n++
	}
	return n
}

// Validate checks the spec against layout limits.
func (s *Spec) Validate() error {
	if len(s.Pointers) > maxPointers {
		return fmt.Errorf("record: %d pointers exceeds max %d", len(s.Pointers), maxPointers)
	}
	if HeaderWords+WordsPerPointer*len(s.Pointers) > maxPtrOffWords {
		return fmt.Errorf("record: pointer region too large for 14-bit back-offsets")
	}
	if vw := wordio.WordsFor(len(s.ValueRegion)); vw > maxValueWords {
		return fmt.Errorf("record: value region %d words exceeds max %d", vw, maxValueWords)
	}
	if s.SizeWords() > maxSizeWords {
		return fmt.Errorf("record: size %d words exceeds max %d", s.SizeWords(), maxSizeWords)
	}
	return nil
}

// Write serializes the record into dst (which must be exactly SizeWords()
// long) with the visibility bit clear and every key pointer's previous
// address set to InvalidAddress. The header word is written with an atomic
// store, because samplers walking an in-memory page (the log composition
// sampler) load every header atomically, unpublished ones included; the
// caller must still publish the record with SetVisible after linking.
func (s *Spec) Write(dst []uint64) {
	n := s.SizeWords()
	if len(dst) != n {
		panic(fmt.Sprintf("record: Write dst len %d != size %d", len(dst), n))
	}
	valueWords := wordio.WordsFor(len(s.ValueRegion))
	payloadWords := wordio.WordsFor(len(s.Payload))
	pad := payloadWords*8 - len(s.Payload)
	hdr := newHeader(n, len(s.Pointers), pad, valueWords, s.Version, s.Checksum, s.Indirect)
	atomic.StoreUint64(&dst[0], uint64(hdr))
	if s.Checksum {
		dst[n-1] = 0 // unsealed trailer; frames are recycled, so clear it
	}
	for i, ps := range s.Pointers {
		w := HeaderWords + i*WordsPerPointer
		dst[w] = packA(InvalidAddress, ps.Mode, w)
		dst[w+1] = packB(ps)
	}
	// Each byte region ends in zero padding up to a word boundary; frames
	// are recycled, so clear a region's last word before copying into it.
	off := HeaderWords + len(s.Pointers)*WordsPerPointer
	if valueWords > 0 {
		dst[off+valueWords-1] = 0
		copy(wordio.Bytes(dst[off:off+valueWords]), s.ValueRegion)
		off += valueWords
	}
	if payloadWords > 0 {
		dst[off+payloadWords-1] = 0
		copy(wordio.Bytes(dst[off:off+payloadWords]), s.Payload)
	}
}

// View provides structured read access to a record laid out in words. The
// slice must start at the record's header word and span at least the whole
// record.
type View struct {
	Words []uint64
}

// Header atomically loads the header word.
func (v View) Header() Header { return Header(atomic.LoadUint64(&v.Words[0])) }

// SetVisible atomically publishes the record to readers (phase 4 of
// ingestion, §6.3).
func (v View) SetVisible() {
	for {
		old := atomic.LoadUint64(&v.Words[0])
		if atomic.CompareAndSwapUint64(&v.Words[0], old, old|hdrVisibleBit) {
			return
		}
	}
}

// Abandon atomically marks an allocation its session gave up on (a badCAS
// reallocation or a rebuild under a newer PSF meta): the invalid and visible
// bits are set in one CAS, so the sealer, which seals only visible records,
// never sees one without the other. It is the only writer of the invalid
// bit, and runs before the epoch bump that lets the page flush.
func (v View) Abandon() {
	for {
		old := atomic.LoadUint64(&v.Words[0])
		if atomic.CompareAndSwapUint64(&v.Words[0], old, old|hdrInvalidBit|hdrVisibleBit) {
			return
		}
	}
}

// PointerWordIndex returns the index of key pointer i's word A.
func (v View) PointerWordIndex(i int) int { return HeaderWords + i*WordsPerPointer }

// KeyPointerAt loads key pointer i, its CAS word atomically.
func (v View) KeyPointerAt(i int) KeyPointer {
	w := v.PointerWordIndex(i)
	return KeyPointer{A: atomic.LoadUint64(&v.Words[w]), B: v.Words[w+1]}
}

// PayloadLen returns the raw payload length in bytes.
func (v View) PayloadLen() int {
	_, n := payloadBounds(v.Header())
	return n
}

// Payload returns the raw payload as a read-only view of the record's
// words, capped at its length: it aliases v.Words and is valid only while
// they are. A caller that keeps the bytes copies them (AppendPayload).
func (v View) Payload() []byte {
	first, n := payloadBounds(v.Header())
	return wordio.Bytes(v.Words[first:])[:n:n]
}

// payloadBounds returns (firstWord, byteLen). Bounds are clamped to zero so
// a corrupt header (oversized pointer or value region) yields an empty
// payload instead of a panic; integrity checks flag such records separately.
func payloadBounds(h Header) (int, int) {
	first := valueRegionStart(h) + h.ValueWords()
	n := (h.SizeWords()-h.TrailerWords()-first)*8 - h.PayloadPad()
	if n < 0 {
		n = 0
	}
	return first, n
}

// valueRegionStart returns the first word after the key pointers: the start
// of the value region, and of the checksummed body.
func valueRegionStart(h Header) int { return HeaderWords + h.NumPtrs()*WordsPerPointer }

// AppendPayload appends a copy of the raw payload to buf and returns it.
func (v View) AppendPayload(buf []byte) []byte {
	return append(buf, v.Payload()...)
}

// bodyBounds returns the word range [start, end) covered by the record
// checksum besides the header word: the value region plus the padded
// payload. The key pointers are excluded — each pointer's previous-address
// word mutates after the record is sealed, even after it is durable, via
// chain splicing, so it cannot be part of a stable checksum.
func bodyBounds(h Header) (int, int) {
	return valueRegionStart(h), h.SizeWords() - h.TrailerWords()
}

// crcScratch pools the staging buffers checksumBody feeds to crc32: the
// crc32.Update call defeats escape analysis, so a local array would be a
// fresh heap allocation (plus zeroing) on every seal and every verify.
var crcScratch = sync.Pool{New: func() any {
	b := make([]byte, crcChunkWords*8)
	return &b
}}

const crcChunkWords = 512

// checksumBody continues the CRC32-C crc over the record body. Words are
// loaded atomically because views may alias live page frames, but are staged
// into a pooled 4 KiB scratch buffer so crc32 runs its bulk
// (hardware-accelerated) kernel instead of paying per-call overhead on every
// word.
func (v View) checksumBody(h Header, crc uint32) uint32 {
	start, end := bodyBounds(h)
	bp := crcScratch.Get().(*[]byte)
	buf := *bp
	for i := start; i < end; {
		n := end - i
		if n > crcChunkWords {
			n = crcChunkWords
		}
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(buf[j*8:], atomic.LoadUint64(&v.Words[i+j]))
		}
		crc = crc32.Update(crc, castagnoli, buf[:n*8])
		i += n
	}
	crcScratch.Put(bp)
	return crc
}

// headerCRC starts a record checksum over the header bits in mask. It
// updates byte by byte, as crc32.Update does for short inputs, so the flush
// path needs no staging buffer for the header.
func headerCRC(h Header, mask uint64) uint32 {
	w := uint64(h) & mask
	crc := ^uint32(0)
	for i := 0; i < 8; i++ {
		crc = castagnoli[byte(crc)^byte(w>>(8*i))] ^ crc>>8
	}
	return ^crc
}

// Seal computes the checksum trailer of a format-v1 record, stores it in
// the record's last word and returns it. The hybrid log seals at flush time,
// once the record is complete, in its private staging copy of the page: the
// CRC runs over the view's bytes in place, so no one may write the view
// concurrently. Sealing is idempotent (the body is immutable, so re-sealing
// stores the same word). v0 records, fillers and corrupt headers are left
// untouched, with ok false.
func (v View) Seal() (uint64, bool) {
	h := v.Header()
	start, end := bodyBounds(h)
	if !h.Checksum() || h.Filler() || start > end || h.SizeWords() > len(v.Words) {
		return 0, false
	}
	tw := sealMagic | uint64(crc32.Update(headerCRC(h, ^uint64(0)), castagnoli, wordio.Bytes(v.Words[start:end])))
	v.Words[h.SizeWords()-1] = tw
	return tw, true
}

// ChecksumOK reports whether the record matches its checksum trailer: the
// header word and body under sealMagic, the header bits in hdrMaskedSeal and
// the body under maskedSealMagic, the body alone under bodySealMagic. v0
// (checksum-less) records pass: they predate the format bit and carry
// nothing to verify — unless the record ends in any seal magic, which marks
// a v1 record whose format bit flipped (a v0 record ends so with probability
// 3·2^-32, and never when its payload is UTF-8 text). An unsealed or torn
// trailer fails.
func (v View) ChecksumOK() bool {
	h := v.Header()
	n := h.SizeWords()
	if h.Filler() {
		return true
	}
	if !h.Checksum() {
		if n < 1 || n > len(v.Words) {
			return true
		}
		magic := atomic.LoadUint64(&v.Words[n-1]) &^ sealCRCMask
		return magic != sealMagic && magic != maskedSealMagic && magic != bodySealMagic
	}
	start, end := bodyBounds(h)
	if start > end || n < 1 || n > len(v.Words) {
		return false
	}
	tw := atomic.LoadUint64(&v.Words[n-1])
	switch tw &^ sealCRCMask {
	case sealMagic:
		return uint32(tw) == v.checksumBody(h, headerCRC(h, ^uint64(0)))
	case maskedSealMagic:
		return uint32(tw) == v.checksumBody(h, headerCRC(h, hdrMaskedSeal))
	case bodySealMagic:
		return uint32(tw) == v.checksumBody(h, 0)
	}
	return false
}

// LostVisibleBit reports whether an invisible record's trailer verifies
// under sealMagic once its visible bit is set. The sealer seals only visible
// records and no header bit changes after sealing, so such a record is a
// sealed one whose visible bit rotted, never an incomplete one.
func (v View) LostVisibleBit() bool {
	h := v.Header()
	n := h.SizeWords()
	if h.Visible() || h.Filler() || !h.Checksum() {
		return false
	}
	start, end := bodyBounds(h)
	if start > end || n < 1 || n > len(v.Words) {
		return false
	}
	tw := atomic.LoadUint64(&v.Words[n-1])
	h |= Header(hdrVisibleBit)
	return tw&^sealCRCMask == sealMagic && uint32(tw) == v.checksumBody(h, headerCRC(h, ^uint64(0)))
}

// boolTrue and boolFalse are the values of every ModeBool key pointer.
var boolTrue, boolFalse = []byte{'t'}, []byte{'f'}

// ValueBytes returns the evaluated PSF value referenced by kp: "t" or "f"
// for ModeBool, otherwise the referenced bytes of the payload or value
// region, or nil when they overrun it. The result copies nothing and is
// read-only: it aliases the record's words (or a shared constant), so callers
// compare or hash it in place and copy what they keep.
func (v View) ValueBytes(kp KeyPointer) []byte {
	var first, n int
	switch kp.Mode() {
	case ModeBool:
		if kp.BoolValue() {
			return boolTrue
		}
		return boolFalse
	case ModePayload:
		first, n = payloadBounds(v.Header())
	case ModeValueRegion:
		h := v.Header()
		first, n = valueRegionStart(h), h.ValueWords()*8
	default:
		return nil
	}
	off := kp.ValOffset()
	end := off + kp.ValSize()
	if end > n {
		return nil
	}
	return wordio.Bytes(v.Words[first:])[off:end:end]
}

// Stop is why a Cursor stopped walking a page image.
type Stop uint8

const (
	StopUnwritten Stop = iota + 1 // a zero header word: the page's unwritten tail
	StopZeroSize                  // a nonzero header word with a zero record size
	StopOverrun                   // a record running past the end of its page
	StopTorn                      // a header or record past the words holding data
	StopLimit                     // the walk's limit address, or the page's end
)

// Cursor walks the records of one page image, one per Next. It decides only
// where records lie and where the page ends: what a filler, an invisible
// record or a stop means is the caller's policy.
type Cursor struct {
	words      []uint64 // the page image from the walk's start to the page's end
	addr       uint64   // address of words[0]
	off        int      // next header's word index in words
	avail      int      // words[:avail] hold data
	limit, end int      // records start below words[limit], and below words[end] = min(avail, limit)
}

// NewCursor starts a walk at addr over words, the page image from addr to
// its page's end. Only words[:avail] hold data; a record starting at or past
// the address limit, unless it is 0, is not yielded.
func NewCursor(words []uint64, addr uint64, avail int, limit uint64) Cursor {
	c := Cursor{words: words, addr: addr, avail: min(max(avail, 0), len(words)), limit: len(words)}
	if limit != 0 && limit <= addr {
		c.limit = 0
	} else if w := (limit-addr-1)/8 + 1; w < uint64(c.limit) {
		c.limit = int(w)
	}
	c.end = min(c.avail, c.limit)
	return c
}

// Next returns the next record's address and view, or at the walk's end
// the address where it stopped and false; Stop then says why.
func (c *Cursor) Next() (uint64, View, bool) {
	off := c.off
	addr := c.addr + uint64(off)*8
	if off >= c.end {
		return addr, View{}, false
	}
	n := Header(atomic.LoadUint64(&c.words[off])).SizeWords()
	if n == 0 || n > c.avail-off {
		return addr, View{}, false
	}
	c.off = off + n
	return addr, View{Words: c.words[off:c.off:c.off]}, true
}

// Stop returns why the walk stopped, once Next has returned false.
func (c *Cursor) Stop() Stop {
	off := c.off
	switch {
	case off >= c.limit:
		return StopLimit
	case off >= c.avail:
		return StopTorn
	}
	w := atomic.LoadUint64(&c.words[off])
	n := Header(w).SizeWords()
	switch {
	case w == 0:
		return StopUnwritten
	case n == 0:
		return StopZeroSize
	case n > len(c.words)-off:
		return StopOverrun
	}
	return StopTorn
}

// holds reports whether h heads a record of at most room words with a key
// pointer slot off (a back-offset, never negative) words past the header: a
// slot's offset is odd and below 2·NumPtrs+1, where the pointers end
// (shifting the field by hdrPtrsShift-1 doubles it).
func (h Header) holds(off, room int) bool {
	n := h.SizeWords()
	return off&1 != 0 && uint64(off) < uint64(h)>>(hdrPtrsShift-1)&(hdrPtrsMask>>(hdrPtrsShift-1)) &&
		off < n-1 && n <= room
}

// fits reports whether h heads a record of at most room words.
func (h Header) fits(room int) bool { n := h.SizeWords(); return n != 0 && n <= room }

// Resolve maps the key pointer at word k of a page image to its record's
// view and header index. ok is false when the link is corrupt: its
// back-offset leaves the page, or reaches no header that holds (Header.holds,
// written out to stay within the inliner's budget) a pointer slot at k.
func Resolve(page []uint64, k int) (v View, b int, ok bool) {
	off := int(atomic.LoadUint64(&page[k]) >> kpOffShift)
	if b = k - off; b >= 0 {
		h := atomic.LoadUint64(&page[b])
		n := int(h & hdrSizeMask)
		if off&1 != 0 && uint64(off) < h>>(hdrPtrsShift-1)&(hdrPtrsMask>>(hdrPtrsShift-1)) && off < n-1 && n <= len(page)-b {
			v.Words, ok = page[b:b+n], true
		}
	}
	return
}

// ResolveRead is Resolve on a device of pageWords-word pages (a power of
// two): it reads the key pointer at kptAddr, then its record as ReadAt does,
// checking after each read, and returns the record's view and address.
func ResolveRead(read func(addr uint64, n int) ([]uint64, error), kptAddr uint64, pageWords int) (View, uint64, bool, error) {
	kw, err := read(kptAddr, WordsPerPointer)
	if err != nil {
		return View{}, 0, false, err
	}
	k := int(kptAddr/8) & (pageWords - 1)
	off := KeyPointer{A: kw[0]}.OffsetWords()
	if off > k {
		return View{}, 0, false, nil
	}
	base := kptAddr - uint64(off)*8
	v, ok, err := readRecord(read, base, pageWords-(k-off), off)
	return v, base, ok, err
}

// ReadAt reads the record whose header is at addr on a device of
// pageWords-word pages: the header, then, unless At would refuse it, the
// record.
func ReadAt(read func(addr uint64, n int) ([]uint64, error), addr uint64, pageWords int) (View, bool, error) {
	return readRecord(read, addr, pageWords-int(addr/8)&(pageWords-1), -1)
}

// readRecord reads the header at addr and, when its record fits in room
// words and, unless off is negative, holds a key pointer slot off words
// past it, the record.
func readRecord(read func(addr uint64, n int) ([]uint64, error), addr uint64, room, off int) (View, bool, error) {
	hw, err := read(addr, HeaderWords)
	if err != nil {
		return View{}, false, err
	}
	h := Header(hw[0])
	if !h.fits(room) || off >= 0 && !h.holds(off, room) {
		return View{}, false, nil
	}
	words, err := read(addr, h.SizeWords())
	return View{Words: words}, err == nil, err
}

// At returns the record whose header is word i of page; ok is false when
// the header's size is zero or the record runs past the page.
func At(page []uint64, i int) (View, bool) {
	h := Header(atomic.LoadUint64(&page[i]))
	if !h.fits(len(page) - i) {
		return View{}, false
	}
	n := i + h.SizeWords()
	return View{Words: page[i:n:n]}, true
}
