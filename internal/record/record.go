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
	// sealed header bits and the body.
	sealMagic = uint64(0x0EA3A15E) << 32

	// bodySealMagic marks a trailer written before seals covered the header:
	// its CRC covers the body alone. Such logs stay readable. It is sealMagic
	// complemented, so no bit flip short of all 32 turns one into the other.
	bodySealMagic = uint64(0xF15C5EA1) << 32

	sealCRCMask = uint64(1)<<32 - 1

	// hdrSealedMask selects the header bits the checksum covers: all but the
	// visibility and invalid bits, which change after a record is sealed.
	// A flipped size, pad or value-region field then fails verification
	// instead of shifting the payload the record reports.
	hdrSealedMask = ^(hdrVisibleBit | hdrInvalidBit)
)

// WordsPerPointer is the size of one key pointer in words.
const WordsPerPointer = 2

// HeaderWords is the size of the record header in words.
const HeaderWords = 1

// Header is the decoded header word.
type Header struct {
	SizeWords  int   // total record size in words, including the header
	NumPtrs    int   // number of key pointers
	PayloadPad int   // zero-padding bytes at the end of the payload
	ValueWords int   // size of the optional value region in words
	Version    uint8 // checkpoint version (mod 16)
	Checksum   bool  // format v1: record ends with a sealed checksum word
	Indirect   bool  // historical index record: payload is a log address
	Filler     bool  // page-fill hole, not a record
	Invalid    bool  // abandoned allocation (only in realloc/badCAS mode)
	Visible    bool  // fully ingested and linked
}

// TrailerWords returns the number of trailing checksum words (1 for format
// v1 records, 0 for v0), already included in SizeWords.
func (h Header) TrailerWords() int {
	if h.Checksum {
		return 1
	}
	return 0
}

// PackHeader encodes h into its word form.
func PackHeader(h Header) uint64 {
	w := uint64(h.SizeWords) & hdrSizeMask
	w |= uint64(h.NumPtrs) << hdrPtrsShift & hdrPtrsMask
	w |= uint64(h.PayloadPad) << hdrPadShift & hdrPadMask
	w |= uint64(h.ValueWords) << hdrValShift & hdrValMask
	w |= uint64(h.Version&0xf) << hdrVerShift
	if h.Checksum {
		w |= hdrChecksumBit
	}
	if h.Indirect {
		w |= hdrIndirectBit
	}
	if h.Filler {
		w |= hdrFillerBit
	}
	if h.Invalid {
		w |= hdrInvalidBit
	}
	if h.Visible {
		w |= hdrVisibleBit
	}
	return w
}

// UnpackHeader decodes a header word.
func UnpackHeader(w uint64) Header {
	return Header{
		SizeWords:  int(w & hdrSizeMask),
		NumPtrs:    int((w & hdrPtrsMask) >> hdrPtrsShift),
		PayloadPad: int((w & hdrPadMask) >> hdrPadShift),
		ValueWords: int((w & hdrValMask) >> hdrValShift),
		Version:    uint8((w & hdrVerMask) >> hdrVerShift),
		Checksum:   w&hdrChecksumBit != 0,
		Indirect:   w&hdrIndirectBit != 0,
		Filler:     w&hdrFillerBit != 0,
		Invalid:    w&hdrInvalidBit != 0,
		Visible:    w&hdrVisibleBit != 0,
	}
}

// FillerWord builds a header word describing a page-fill hole of sizeWords
// words (used to seal the unusable tail of a page).
func FillerWord(sizeWords int) uint64 {
	return PackHeader(Header{SizeWords: sizeWords, Filler: true})
}

// KeyPointer is the decoded form of one 16-byte key pointer.
type KeyPointer struct {
	PrevAddress uint64 // address of the previous key pointer in this chain
	Mode        Mode
	OffsetWords int    // words from the record header to this key pointer
	PSFID       uint16 // naming-service id of the PSF
	BoolValue   bool   // ModeBool: the inline value
	ValOffset   int    // ModePayload/ModeValueRegion: byte offset of value
	ValSize     int    // ModePayload/ModeValueRegion: byte size of value
}

// packA encodes the CAS word (word A) of a key pointer.
func packA(prev uint64, mode Mode, offsetWords int) uint64 {
	return prev&kpAddrMask | uint64(mode)<<kpModeShift&kpModeMask | uint64(offsetWords)<<kpOffShift
}

// packB encodes word B.
func packB(kp KeyPointer) uint64 {
	w := uint64(kp.PSFID)
	switch kp.Mode {
	case ModeBool:
		if kp.BoolValue {
			w |= kpBoolBit
		}
	case ModePayload, ModeValueRegion:
		w |= uint64(kp.ValOffset) << kpValOffShift & kpValOffMask
		w |= uint64(kp.ValSize) << kpValSzShift & kpValSzMask
	}
	return w
}

// UnpackKeyPointer decodes the two words of a key pointer.
func UnpackKeyPointer(a, b uint64) KeyPointer {
	kp := KeyPointer{
		PrevAddress: a & kpAddrMask,
		Mode:        Mode((a & kpModeMask) >> kpModeShift),
		OffsetWords: int(a >> kpOffShift),
		PSFID:       uint16(b & kpPSFMask),
	}
	switch kp.Mode {
	case ModeBool:
		kp.BoolValue = b&kpBoolBit != 0
	case ModePayload, ModeValueRegion:
		kp.ValOffset = int((b & kpValOffMask) >> kpValOffShift)
		kp.ValSize = int((b & kpValSzMask) >> kpValSzShift)
	}
	return kp
}

// SwapPrevAddress CASes word A (at wordsA) from old to the same word with
// prevAddress replaced by newPrev. old must be the exact previously-loaded
// word value.
func SwapPrevAddress(wordA *uint64, old uint64, newPrev uint64) bool {
	newWord := (old &^ kpAddrMask) | (newPrev & kpAddrMask)
	return atomic.CompareAndSwapUint64(wordA, old, newWord)
}

// PrevAddressOf extracts the previous address from a word-A value.
func PrevAddressOf(wordA uint64) uint64 { return wordA & kpAddrMask }

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
// store, because samplers walking an in-memory page (LogComposition) load
// every header atomically, unpublished ones included; the caller must still
// publish the record with SetVisible after linking.
func (s *Spec) Write(dst []uint64) {
	n := s.SizeWords()
	if len(dst) != n {
		panic(fmt.Sprintf("record: Write dst len %d != size %d", len(dst), n))
	}
	valueWords := wordio.WordsFor(len(s.ValueRegion))
	payloadWords := wordio.WordsFor(len(s.Payload))
	pad := payloadWords*8 - len(s.Payload)
	hdr := Header{
		SizeWords:  n,
		NumPtrs:    len(s.Pointers),
		PayloadPad: pad,
		ValueWords: valueWords,
		Version:    s.Version,
		Indirect:   s.Indirect,
		Checksum:   s.Checksum,
	}
	atomic.StoreUint64(&dst[0], PackHeader(hdr))
	if s.Checksum {
		dst[n-1] = 0 // unsealed trailer; frames are recycled, so clear it
	}
	for i, ps := range s.Pointers {
		kp := KeyPointer{
			Mode:      ps.Mode,
			PSFID:     ps.PSFID,
			BoolValue: ps.BoolValue,
			ValOffset: ps.ValOffset,
			ValSize:   ps.ValSize,
		}
		w := HeaderWords + i*WordsPerPointer
		dst[w] = packA(InvalidAddress, ps.Mode, w)
		dst[w+1] = packB(kp)
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

// HeaderWord atomically loads the raw header word.
func (v View) HeaderWord() uint64 { return atomic.LoadUint64(&v.Words[0]) }

// Header atomically loads and decodes the header.
func (v View) Header() Header { return UnpackHeader(v.HeaderWord()) }

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

// SetInvalid atomically marks an abandoned allocation (realloc/badCAS mode).
func (v View) SetInvalid() {
	for {
		old := atomic.LoadUint64(&v.Words[0])
		if atomic.CompareAndSwapUint64(&v.Words[0], old, old|hdrInvalidBit) {
			return
		}
	}
}

// PointerWordIndex returns the index of key pointer i's word A.
func (v View) PointerWordIndex(i int) int { return HeaderWords + i*WordsPerPointer }

// KeyPointerAt decodes key pointer i, loading its CAS word atomically.
func (v View) KeyPointerAt(i int) KeyPointer {
	w := v.PointerWordIndex(i)
	a := atomic.LoadUint64(&v.Words[w])
	b := v.Words[w+1]
	return UnpackKeyPointer(a, b)
}

// payloadBounds returns (firstWord, byteLen). Bounds are clamped to zero so
// a corrupt header (oversized pointer or value region) yields an empty
// payload instead of a panic; integrity checks flag such records separately.
func (v View) payloadBounds(h Header) (int, int) {
	first := HeaderWords + h.NumPtrs*WordsPerPointer + h.ValueWords
	words := h.SizeWords - h.TrailerWords() - first
	n := words*8 - h.PayloadPad
	if n < 0 {
		n = 0
	}
	return first, n
}

// PayloadLen returns the raw payload length in bytes.
func (v View) PayloadLen() int {
	_, n := v.payloadBounds(v.Header())
	return n
}

// payloadBytes returns the raw payload as a read-only view of the record's
// words.
func (v View) payloadBytes() []byte {
	first, n := v.payloadBounds(v.Header())
	return wordio.Bytes(v.Words[first:])[:n:n]
}

// Payload copies the raw payload bytes out of the record.
func (v View) Payload() []byte {
	p := v.payloadBytes()
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// AppendPayload appends the raw payload to buf and returns it.
func (v View) AppendPayload(buf []byte) []byte {
	return append(buf, v.payloadBytes()...)
}

// bodyBounds returns the word range [start, end) covered by the record
// checksum: the value region plus the padded payload. The header and key
// pointers are excluded — the header's visibility/invalid bits and each
// pointer's previous-address word mutate after the body is written (and,
// for addresses, even after the record is durable, via chain splicing), so
// they cannot be part of a stable checksum.
func bodyBounds(h Header) (int, int) {
	return HeaderWords + h.NumPtrs*WordsPerPointer, h.SizeWords - h.TrailerWords()
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

// headerCRC starts a record checksum over the sealed header bits. It
// updates byte by byte, as crc32.Update does for short inputs, so the flush
// path needs no staging buffer for the header.
func headerCRC(h Header) uint32 {
	w := PackHeader(h) & hdrSealedMask
	crc := ^uint32(0)
	for i := 0; i < 8; i++ {
		crc = castagnoli[byte(crc)^byte(w>>(8*i))] ^ crc>>8
	}
	return ^crc
}

// Seal computes and stores the checksum trailer of a format-v1 record. The
// hybrid log calls it at flush time, once the record is complete; sealing is
// idempotent (the body is immutable, so re-sealing stores the same word).
// v0 records and fillers are left untouched.
func (v View) Seal() {
	h := v.Header()
	if !h.Checksum || h.Filler {
		return
	}
	start, end := bodyBounds(h)
	if start > end || h.SizeWords > len(v.Words) {
		return // corrupt header; never sealable
	}
	atomic.StoreUint64(&v.Words[h.SizeWords-1], sealMagic|uint64(v.checksumBody(h, headerCRC(h))))
}

// SealedTrailer computes the checksum trailer word for a record already
// serialized little-endian into b (at least h.SizeWords*8 bytes). The
// flush path uses it to CRC directly over its private staging buffer —
// contiguous bytes, no per-word atomic loads — and then patches the trailer
// into both the buffer and the live frame. The byte stream is identical to
// what checksumBody stages, so the two always agree. Returns false for
// records that are not sealable (v0, fillers, corrupt headers).
func SealedTrailer(h Header, b []byte) (uint64, bool) {
	if !h.Checksum || h.Filler {
		return 0, false
	}
	start, end := bodyBounds(h)
	if start > end || h.SizeWords < 1 || h.SizeWords*8 > len(b) {
		return 0, false
	}
	return sealMagic | uint64(crc32.Update(headerCRC(h), castagnoli, b[start*8:end*8])), true
}

// ChecksumOK reports whether the record matches its checksum trailer: the
// sealed header bits and body under sealMagic, the body alone under
// bodySealMagic. v0 (checksum-less) records pass: they predate the format
// bit and carry nothing to verify — unless the record ends in either seal
// magic, which marks a v1 record whose format bit flipped (a v0 record ends
// so with probability 2^-31, and never when its payload is UTF-8 text). An
// unsealed or torn trailer fails.
func (v View) ChecksumOK() bool {
	h := v.Header()
	if h.Filler {
		return true
	}
	if !h.Checksum {
		if h.SizeWords < 1 || h.SizeWords > len(v.Words) {
			return true
		}
		magic := atomic.LoadUint64(&v.Words[h.SizeWords-1]) &^ sealCRCMask
		return magic != sealMagic && magic != bodySealMagic
	}
	start, end := bodyBounds(h)
	if start > end || h.SizeWords < 1 || h.SizeWords > len(v.Words) {
		return false
	}
	tw := atomic.LoadUint64(&v.Words[h.SizeWords-1])
	switch tw &^ sealCRCMask {
	case sealMagic:
		return uint32(tw) == v.checksumBody(h, headerCRC(h))
	case bodySealMagic:
		return uint32(tw) == v.checksumBody(h, 0)
	}
	return false
}

// boolTrue and boolFalse are the values of every ModeBool key pointer.
var boolTrue, boolFalse = []byte{'t'}, []byte{'f'}

// ValueBytes returns the evaluated PSF value referenced by kp: "t" or "f"
// for ModeBool, otherwise the referenced bytes of the payload or value
// region, or nil when they overrun it. The result copies nothing and is
// read-only: it aliases the record's words (or a shared constant), so callers
// compare or hash it in place and copy what they keep.
func (v View) ValueBytes(kp KeyPointer) []byte {
	switch kp.Mode {
	case ModeBool:
		if kp.BoolValue {
			return boolTrue
		}
		return boolFalse
	case ModePayload:
		first, n := v.payloadBounds(v.Header())
		return v.valueIn(first, n, kp)
	case ModeValueRegion:
		h := v.Header()
		return v.valueIn(HeaderWords+h.NumPtrs*WordsPerPointer, h.ValueWords*8, kp)
	}
	return nil
}

// valueIn returns kp's value inside the n-byte region that starts at word
// first, or nil when the value overruns the region.
func (v View) valueIn(first, n int, kp KeyPointer) []byte {
	end := kp.ValOffset + kp.ValSize
	if end > n {
		return nil
	}
	return wordio.Bytes(v.Words[first:])[kp.ValOffset:end:end]
}
