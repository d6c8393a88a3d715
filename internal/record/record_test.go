package record

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"testing/quick"
)

func bitOf(x bool) uint64 {
	if x {
		return 1
	}
	return 0
}

// headerFields reads every field accessor of h, in layout order.
func headerFields(h Header) [10]uint64 {
	return [10]uint64{uint64(h.SizeWords()), uint64(h.NumPtrs()), bitOf(h.Checksum()), uint64(h.PayloadPad()),
		uint64(h.ValueWords()), uint64(h.Version()), bitOf(h.Indirect()), bitOf(h.Filler()), bitOf(h.Invalid()), bitOf(h.Visible())}
}

// TestHeaderRoundTripProperty: every field the writers put in a header word
// (Spec.Write through newHeader, SetVisible, Abandon, FillerWord) reads back
// through its accessor, at the layout's limits too, and each of the word's
// 64 bits is read by exactly one accessor.
func TestHeaderRoundTripProperty(t *testing.T) {
	check := func(h Header, want [10]uint64) {
		t.Helper()
		if got := headerFields(h); got != want {
			t.Fatalf("header %#x reads %v, want %v", uint64(h), got, want)
		}
	}
	// newHeader, the builder Spec.Write uses, over the whole of each field,
	// its limits included.
	f := func(size uint32, ptrs uint16, pad uint8, valWords uint16, ver uint8, cksum, indirect bool) bool {
		size &= maxSizeWords
		ptrs &= maxPointers
		pad %= 8
		valWords &= maxValueWords
		ver &= 0xf
		h := newHeader(int(size), int(ptrs), int(pad), int(valWords), ver, cksum, indirect)
		return headerFields(h) == [10]uint64{uint64(size), uint64(ptrs), bitOf(cksum), uint64(pad),
			uint64(valWords), uint64(ver), bitOf(indirect), 0, 0, 0} && h.TrailerWords() == int(bitOf(cksum))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	check(newHeader(maxSizeWords, maxPointers, 7, maxValueWords, 15, true, true),
		[10]uint64{maxSizeWords, maxPointers, 1, 7, maxValueWords, 15, 1, 0, 0, 0})

	// Spec.Write: every pad, all three pointer modes, checksum and indirect
	// on and off, and the largest pointer and value regions Validate allows.
	maxPtrs := (maxPtrOffWords - HeaderWords) / WordsPerPointer
	for _, shape := range []struct{ ptrs, payload, value int }{
		{0, 0, 0}, {1, 1, 3}, {3, 2, 8}, {3, 3, 0}, {2, 4, 17}, {1, 5, 1}, {2, 6, 9}, {3, 7, 5}, {3, 8, 0},
		{maxPtrs, 64, maxValueWords * 8},
	} {
		for _, cksum := range []bool{false, true} {
			for _, indirect := range []bool{false, true} {
				payload := make([]byte, shape.payload)
				ptrs := make([]PointerSpec, shape.ptrs)
				for i := range ptrs {
					switch i % 3 {
					case 0:
						ptrs[i] = PointerSpec{PSFID: uint16(i), Mode: ModeBool, BoolValue: i%2 == 0}
					case 1:
						ptrs[i] = PointerSpec{PSFID: uint16(i), Mode: ModePayload, ValOffset: i % 5, ValSize: 1<<kpValSzBits - 1}
					case 2:
						ptrs[i] = PointerSpec{PSFID: ^uint16(i), Mode: ModeValueRegion, ValOffset: 1<<kpValOffBits - 1, ValSize: i}
					}
				}
				spec := Spec{Payload: payload, Pointers: ptrs, ValueRegion: make([]byte, shape.value),
					Version: uint8(shape.payload % 16), Checksum: cksum, Indirect: indirect}
				if err := spec.Validate(); err != nil {
					t.Fatal(err)
				}
				words := make([]uint64, spec.SizeWords())
				for i := range words {
					words[i] = ^uint64(0) // frames are recycled
				}
				spec.Write(words)
				v := View{Words: words}
				pad := (8 - shape.payload%8) % 8
				want := [10]uint64{uint64(len(words)), uint64(shape.ptrs), bitOf(cksum), uint64(pad),
					uint64(wordsForTest(shape.value)), uint64(spec.Version), bitOf(indirect), 0, 0, 0}
				check(v.Header(), want)
				for i, ps := range ptrs {
					kp := v.KeyPointerAt(i)
					if kp.PrevAddress() != InvalidAddress || kp.Mode() != ps.Mode || kp.OffsetWords() != v.PointerWordIndex(i) ||
						kp.PSFID() != ps.PSFID {
						t.Fatalf("pointer %d of %d reads %#x %#x, want %+v", i, shape.ptrs, kp.A, kp.B, ps)
					}
					if ps.Mode == ModeBool && kp.BoolValue() != ps.BoolValue ||
						ps.Mode != ModeBool && (kp.ValOffset() != ps.ValOffset || kp.ValSize() != ps.ValSize) {
						t.Fatalf("pointer %d of %d reads %#x %#x, want %+v", i, shape.ptrs, kp.A, kp.B, ps)
					}
				}
				v.SetVisible()
				want[9] = 1
				check(v.Header(), want)
				v.Abandon()
				want[8] = 1
				check(v.Header(), want)
			}
		}
	}
	// The back-offset field at its limit, beside the largest address.
	if kp := (KeyPointer{A: packA(kpAddrMask, ModeValueRegion, maxPtrOffWords)}); kp.OffsetWords() != maxPtrOffWords ||
		kp.PrevAddress() != kpAddrMask || kp.Mode() != ModeValueRegion {
		t.Fatalf("word A %#x misreads", kp.A)
	}

	for _, size := range []int{1, 512, maxSizeWords} {
		check(Header(FillerWord(size)), [10]uint64{uint64(size), 0, 0, 0, 0, 0, 0, 1, 0, 0})
	}

	// Bit ownership: flipping any one bit changes exactly one field.
	for _, base := range []uint64{0, ^uint64(0), 0x5a5a_c3c3_0f0f_9669} {
		for bit := 0; bit < 64; bit++ {
			before, after := headerFields(Header(base)), headerFields(Header(base^1<<bit))
			changed := 0
			for i := range before {
				if before[i] != after[i] {
					changed++
				}
			}
			if changed != 1 {
				t.Fatalf("bit %d of %#x is read by %d accessors, want 1", bit, base, changed)
			}
		}
	}
}

func TestKeyPointerRoundTrip(t *testing.T) {
	ps := []PointerSpec{
		{PSFID: 42, Mode: ModeBool, BoolValue: true},
		{PSFID: 7, Mode: ModeBool, BoolValue: false},
		{PSFID: 999, Mode: ModePayload, ValOffset: 100, ValSize: 20},
		{PSFID: 1, Mode: ModeValueRegion, ValOffset: 0, ValSize: 8},
	}
	spec := Spec{Pointers: ps}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	for i, p := range ps {
		SetPrevAddress(&words[v.PointerWordIndex(i)], uint64(i)<<40|123)
		kp := v.KeyPointerAt(i)
		if kp.PrevAddress() != uint64(i)<<40|123 || kp.Mode() != p.Mode || kp.OffsetWords() != 1+2*i ||
			kp.PSFID() != p.PSFID || kp.BoolValue() != p.BoolValue ||
			p.Mode != ModeBool && (kp.ValOffset() != p.ValOffset || kp.ValSize() != p.ValSize) {
			t.Errorf("pointer %d reads %#x %#x, want %+v", i, kp.A, kp.B, p)
		}
	}
}

func TestSpecSizeMatchesPaperFormula(t *testing.T) {
	// Paper §6.2: raw size s with k properties needs 8 + 16k + ceil(s/8)*8
	// bytes when the value region is empty.
	for _, k := range []int{0, 1, 2, 5} {
		for _, s := range []int{0, 1, 7, 8, 9, 100, 1000} {
			spec := Spec{Payload: make([]byte, s), Pointers: make([]PointerSpec, k)}
			wantBytes := 8 + 16*k + (s+7)/8*8
			if got := spec.SizeWords() * 8; got != wantBytes {
				t.Fatalf("k=%d s=%d: size %d bytes, want %d", k, s, got, wantBytes)
			}
		}
	}
}

func TestWriteAndView(t *testing.T) {
	payload := []byte(`{"id": 1, "type": "PushEvent", "repo": "spark"}`)
	spec := Spec{
		Payload: payload,
		Pointers: []PointerSpec{
			{PSFID: 1, Mode: ModeBool, BoolValue: true},
			{PSFID: 2, Mode: ModePayload, ValOffset: 11, ValSize: 9},
		},
		Version: 3,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}

	h := v.Header()
	if h.Visible() {
		t.Fatal("record must be written invisible")
	}
	if h.NumPtrs() != 2 || h.Version() != 3 {
		t.Fatalf("header = %#x", uint64(h))
	}
	if got := v.Payload(); !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
	if v.PayloadLen() != len(payload) {
		t.Fatalf("PayloadLen = %d, want %d", v.PayloadLen(), len(payload))
	}

	kp0 := v.KeyPointerAt(0)
	if kp0.PSFID() != 1 || kp0.Mode() != ModeBool || !kp0.BoolValue() {
		t.Fatalf("kp0 = %#x %#x", kp0.A, kp0.B)
	}
	if kp0.OffsetWords() != 1 {
		t.Fatalf("kp0.OffsetWords = %d, want 1", kp0.OffsetWords())
	}
	kp1 := v.KeyPointerAt(1)
	if kp1.OffsetWords() != 3 {
		t.Fatalf("kp1.OffsetWords = %d, want 3", kp1.OffsetWords())
	}
	// The ModePayload value is bytes [11, 20) of the payload.
	if got, want := v.ValueBytes(kp1), payload[11:20]; !bytes.Equal(got, want) {
		t.Fatalf("ValueBytes = %q, want %q", got, want)
	}
}

func TestValueBytesBool(t *testing.T) {
	spec := Spec{Payload: []byte("x"), Pointers: []PointerSpec{
		{PSFID: 1, Mode: ModeBool, BoolValue: true},
		{PSFID: 2, Mode: ModeBool, BoolValue: false},
	}}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	if string(v.ValueBytes(v.KeyPointerAt(0))) != "t" {
		t.Fatal("true bool value")
	}
	if string(v.ValueBytes(v.KeyPointerAt(1))) != "f" {
		t.Fatal("false bool value")
	}
}

func TestValueRegion(t *testing.T) {
	val := []byte("evaluated-psf-value")
	spec := Spec{
		Payload:     []byte("raw payload bytes"),
		ValueRegion: val,
		Pointers: []PointerSpec{
			{PSFID: 9, Mode: ModeValueRegion, ValOffset: 0, ValSize: len(val)},
			{PSFID: 9, Mode: ModeValueRegion, ValOffset: 10, ValSize: 3},
		},
	}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	if got := v.ValueBytes(v.KeyPointerAt(0)); !bytes.Equal(got, val) {
		t.Fatalf("value region read = %q", got)
	}
	if got := v.ValueBytes(v.KeyPointerAt(1)); string(got) != "psf" {
		t.Fatalf("sub-value = %q", got)
	}
	// Payload must still round trip with a value region present.
	if got := v.Payload(); string(got) != "raw payload bytes" {
		t.Fatalf("payload with value region = %q", got)
	}
}

func TestValueBytesOutOfRange(t *testing.T) {
	spec := Spec{Payload: []byte("tiny"), Pointers: []PointerSpec{
		{PSFID: 1, Mode: ModePayload, ValOffset: 100, ValSize: 50},
	}}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	if got := v.ValueBytes(v.KeyPointerAt(0)); got != nil {
		t.Fatalf("out-of-range value = %q, want nil", got)
	}
}

func TestSetVisibleAndInvalid(t *testing.T) {
	spec := Spec{Payload: []byte("p")}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	v.SetVisible()
	if !v.Header().Visible() {
		t.Fatal("SetVisible did not set the bit")
	}
	words[0] &^= hdrVisibleBit
	v.Abandon()
	h := v.Header()
	if !h.Invalid() || !h.Visible() || h.SizeWords() != spec.SizeWords() {
		t.Fatalf("Abandon must set the invalid and visible bits only: %#x", uint64(h))
	}
}

func TestSwapPrevAddress(t *testing.T) {
	spec := Spec{Payload: []byte("p"), Pointers: []PointerSpec{{PSFID: 5, Mode: ModeBool, BoolValue: true}}}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	wi := v.PointerWordIndex(0)

	old := words[wi]
	if !SwapPrevAddress(&words[wi], old, 0xdeadbeef) {
		t.Fatal("CAS failed with correct expected value")
	}
	kp := v.KeyPointerAt(0)
	if kp.PrevAddress() != 0xdeadbeef {
		t.Fatalf("PrevAddress = %x", kp.PrevAddress())
	}
	if kp.PSFID() != 5 || kp.Mode() != ModeBool || !kp.BoolValue() {
		t.Fatalf("non-address fields corrupted: %#x %#x", kp.A, kp.B)
	}
	if SwapPrevAddress(&words[wi], old, 0x1111) {
		t.Fatal("CAS with stale value succeeded")
	}
}

func TestFillerWord(t *testing.T) {
	h := Header(FillerWord(512))
	if !h.Filler() || h.SizeWords() != 512 || h.Visible() {
		t.Fatalf("filler header = %#x", uint64(h))
	}
}

func TestValidateLimits(t *testing.T) {
	ok := Spec{Payload: make([]byte, 100), Pointers: make([]PointerSpec, 10)}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	tooManyPtrs := Spec{Pointers: make([]PointerSpec, maxPointers+1)}
	if err := tooManyPtrs.Validate(); err == nil {
		t.Fatal("expected error for too many pointers")
	}
	bigValue := Spec{ValueRegion: make([]byte, (maxValueWords+1)*8)}
	if err := bigValue.Validate(); err == nil {
		t.Fatal("expected error for oversized value region")
	}
}

func TestPayloadRoundTripProperty(t *testing.T) {
	f := func(payload []byte, nPtrs uint8, value []byte) bool {
		if len(value) > 1024 {
			value = value[:1024]
		}
		ptrs := make([]PointerSpec, int(nPtrs)%8)
		for i := range ptrs {
			ptrs[i] = PointerSpec{PSFID: uint16(i), Mode: ModeBool, BoolValue: i%2 == 0}
		}
		// One pointer into each byte region, so ValueBytes reads the words
		// that carry the regions' padding.
		cut := len(payload) / 3
		ptrs = append(ptrs,
			PointerSpec{PSFID: 100, Mode: ModeValueRegion, ValSize: len(value)},
			PointerSpec{PSFID: 101, Mode: ModePayload, ValOffset: cut, ValSize: len(payload) - cut})
		spec := Spec{Payload: payload, Pointers: ptrs, ValueRegion: value, Checksum: true}

		// Frames are recycled: a record written over a dirty destination must
		// read back, and seal, exactly like one written over zeroed words.
		var trailers []uint64
		for _, fill := range []uint64{0, ^uint64(0)} {
			words := make([]uint64, spec.SizeWords())
			for i := range words {
				words[i] = fill
			}
			spec.Write(words)
			v := View{Words: words}
			h := v.Header()
			n := len(ptrs)
			if h.NumPtrs() != n || h.SizeWords() != spec.SizeWords() ||
				!bytes.Equal(v.Payload(), payload) ||
				!bytes.Equal(v.ValueBytes(v.KeyPointerAt(n-2)), value) ||
				!bytes.Equal(v.ValueBytes(v.KeyPointerAt(n-1)), payload[cut:]) {
				return false
			}
			v.SetVisible()
			v.Seal()
			trailers = append(trailers, words[len(words)-1])
		}
		return trailers[0] == trailers[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumSealAndVerify(t *testing.T) {
	payload := []byte(`{"id": 1, "repo": "spark", "seq": 42}`)
	spec := Spec{
		Payload:     payload,
		ValueRegion: []byte("psf-value"),
		Pointers: []PointerSpec{
			{PSFID: 1, Mode: ModeBool, BoolValue: true},
			{PSFID: 2, Mode: ModePayload, ValOffset: 11, ValSize: 5},
		},
		Checksum: true,
	}
	v0 := Spec{Payload: payload, Pointers: spec.Pointers}
	if spec.SizeWords() != v0.SizeWords()+wordsForTest(len(spec.ValueRegion))+1 {
		t.Fatalf("checksum trailer must add exactly one word: %d vs %d",
			spec.SizeWords(), v0.SizeWords())
	}
	words := make([]uint64, spec.SizeWords())
	// Dirty the destination: frames are recycled, Write must clear the trailer.
	for i := range words {
		words[i] = ^uint64(0)
	}
	spec.Write(words)
	v := View{Words: words}
	h := v.Header()
	if !h.Checksum() || h.TrailerWords() != 1 {
		t.Fatalf("header = %#x", uint64(h))
	}
	if words[len(words)-1] != 0 {
		t.Fatal("Write must leave the trailer unsealed (zero)")
	}
	if v.ChecksumOK() {
		t.Fatal("unsealed record must fail verification")
	}
	if !bytes.Equal(v.Payload(), payload) {
		t.Fatalf("payload with trailer = %q", v.Payload())
	}
	if v.PayloadLen() != len(payload) {
		t.Fatalf("PayloadLen = %d, want %d", v.PayloadLen(), len(payload))
	}

	v.SetVisible()
	v.Seal()
	if !v.ChecksumOK() {
		t.Fatal("sealed record must verify")
	}
	sealed := words[len(words)-1]
	if sealed == 0 {
		t.Fatal("seal left trailer zero")
	}
	v.Seal()
	if words[len(words)-1] != sealed {
		t.Fatal("sealing is not idempotent")
	}

	// A chain splice must not break the seal — key pointers are excluded
	// from it — but a changed header bit must.
	SetPrevAddress(&words[v.PointerWordIndex(0)], 0xbeef00)
	if !v.ChecksumOK() {
		t.Fatal("pointer mutation broke the checksum")
	}
	for _, bit := range []uint64{hdrInvalidBit, hdrVisibleBit} {
		words[0] ^= bit
		if v.ChecksumOK() {
			t.Fatalf("header bit %#x flipped after sealing went undetected", bit)
		}
		words[0] ^= bit
	}

	// Any body flip must break it.
	start, end := bodyBounds(v.Header())
	for i := start; i < end; i++ {
		for bit := 0; bit < 64; bit += 17 {
			words[i] ^= 1 << bit
			if v.ChecksumOK() {
				t.Fatalf("flip of word %d bit %d went undetected", i, bit)
			}
			words[i] ^= 1 << bit
		}
	}
	if !v.ChecksumOK() {
		t.Fatal("restored record must verify again")
	}

	// A torn trailer (zeroed by a partial write) fails.
	words[len(words)-1] = 0
	if v.ChecksumOK() {
		t.Fatal("zeroed trailer accepted")
	}
}

// TestLostVisibleBit: an unsealed invisible record is an incomplete one; a
// sealed record whose visible bit is cleared is rot, and only then.
func TestLostVisibleBit(t *testing.T) {
	spec := Spec{Payload: []byte(`{"id": 7, "repo": "spark"}`), Checksum: true,
		Pointers: []PointerSpec{{PSFID: 1, Mode: ModeBool, BoolValue: true}}}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	if v.LostVisibleBit() {
		t.Fatal("an unsealed invisible record read as rot")
	}
	v.SetVisible()
	v.Seal()
	if v.LostVisibleBit() {
		t.Fatal("a visible sealed record read as rot")
	}
	words[0] &^= hdrVisibleBit
	if !v.LostVisibleBit() {
		t.Fatal("a sealed record that lost its visible bit was not reported")
	}
	words[len(words)-2] ^= 1
	if v.LostVisibleBit() {
		t.Fatal("an invisible record whose seal fails read as a lost visible bit")
	}
}

// TestBodySealedRecordsVerify: a record sealed before seals covered the
// header (CRC32-C over the body alone, under the old trailer magic) still
// verifies, a body flip still fails it, and so does a flipped format bit.
func TestBodySealedRecordsVerify(t *testing.T) {
	spec := Spec{Payload: []byte(`{"id": 7, "repo": "spark"}`), ValueRegion: []byte("spark"), Checksum: true,
		Pointers: []PointerSpec{{PSFID: 1, Mode: ModeBool, BoolValue: true}}}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	v.SetVisible()
	start, end := bodyBounds(v.Header())
	body := make([]byte, 0, (end-start)*8)
	for _, w := range words[start:end] {
		body = binary.LittleEndian.AppendUint64(body, w)
	}
	old := uint64(0xF15C5EA1)<<32 | uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	words[len(words)-1] = old
	if !v.ChecksumOK() {
		t.Fatal("body-sealed record must verify")
	}
	v.Seal()
	if words[len(words)-1] == old || !v.ChecksumOK() {
		t.Fatalf("resealing wrote %#x, want a verifying header-covering seal", words[len(words)-1])
	}
	words[len(words)-1] = old
	words[start] ^= 1
	if v.ChecksumOK() {
		t.Fatal("body flip under a body-only seal went undetected")
	}
	words[start] ^= 1
	words[0] ^= hdrChecksumBit
	if v.ChecksumOK() {
		t.Fatal("a v1 record whose format bit flipped verified as v0")
	}
}

// TestMaskedSealedRecordsVerify: a record sealed while seals skipped the
// visibility and invalid bits (under maskedSealMagic) still verifies with
// either bit in any state, and a flip of any other header bit fails it.
func TestMaskedSealedRecordsVerify(t *testing.T) {
	spec := Spec{Payload: []byte(`{"id": 8, "repo": "spark"}`), Checksum: true,
		Pointers: []PointerSpec{{PSFID: 1, Mode: ModeBool, BoolValue: true}}}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	start, end := bodyBounds(v.Header())
	body := make([]byte, 0, (end-start)*8)
	for _, w := range words[start:end] {
		body = binary.LittleEndian.AppendUint64(body, w)
	}
	hdr := binary.LittleEndian.AppendUint64(nil, words[0]&^(hdrVisibleBit|hdrInvalidBit))
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	words[len(words)-1] = uint64(0x0EA3A15E)<<32 | uint64(crc32.Update(crc32.Checksum(hdr, castagnoli), castagnoli, body))
	for _, publish := range []func(){func() {}, v.SetVisible, v.Abandon} {
		publish()
		if !v.ChecksumOK() {
			t.Fatalf("masked-sealed record with header %#x must verify", uint64(v.Header()))
		}
	}
	for bit := 0; bit < 62; bit++ {
		if m := uint64(1) << bit; m != hdrFillerBit {
			words[0] ^= m
			if v.ChecksumOK() {
				t.Fatalf("flip of masked-sealed header bit %d went undetected", bit)
			}
			words[0] ^= m
		}
	}
}

func TestChecksumV0RecordsAlwaysPass(t *testing.T) {
	spec := Spec{Payload: []byte("v0 record"), Pointers: []PointerSpec{{PSFID: 3, Mode: ModeBool}}}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	if v.Header().Checksum() {
		t.Fatal("spec without Checksum produced a v1 header")
	}
	if !v.ChecksumOK() {
		t.Fatal("v0 record must pass checksum verification unchecked")
	}
	v.Seal() // must be a no-op
	if words[len(words)-1] == 0 && len(words) > 1 {
		// last payload word may legitimately be zero; just ensure size didn't change
		_ = words
	}
	if h := v.Header(); h.SizeWords() != spec.SizeWords() {
		t.Fatalf("Seal mutated a v0 record: %#x", uint64(h))
	}
}

func TestChecksumEmptyBody(t *testing.T) {
	spec := Spec{Checksum: true}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	if v.ChecksumOK() {
		t.Fatal("unsealed empty record passed")
	}
	v.Seal()
	if !v.ChecksumOK() {
		t.Fatal("sealed empty-body record must verify")
	}
}

func wordsForTest(n int) int { return (n + 7) / 8 }

func BenchmarkSpecWrite1KB(b *testing.B) {
	payload := make([]byte, 1024)
	spec := Spec{Payload: payload, Pointers: []PointerSpec{
		{PSFID: 1, Mode: ModeBool, BoolValue: true},
		{PSFID: 2, Mode: ModePayload, ValOffset: 0, ValSize: 10},
	}}
	words := make([]uint64, spec.SizeWords())
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Write(words)
	}
}

// TestResolveProperty: on any page image, Resolve accepts exactly the key
// pointer words whose back-offset stays in the page and reaches a header
// that holds a pointer slot there (Header.holds), and ResolveRead and
// ReadAt, reading the same image, agree with Resolve and At.
func TestResolveProperty(t *testing.T) {
	f := func(seed []uint64, ks []uint16) bool {
		page := make([]uint64, 64)
		copy(page, seed)
		// Plant a real record so that some links resolve.
		spec := Spec{Payload: []byte("0123456789abcdef"), Checksum: true,
			Pointers: []PointerSpec{{PSFID: 1}, {PSFID: 2}}}
		if int(uint16(len(seed)))%2 == 0 {
			spec.Write(page[8 : 8+spec.SizeWords()])
		}
		read := func(addr uint64, n int) ([]uint64, error) { return page[addr/8 : addr/8+uint64(n)], nil }
		for _, k16 := range ks {
			k := int(k16) % len(page)
			off := KeyPointer{A: page[k]}.OffsetWords()
			b := k - off
			want := b >= 0 && Header(page[b]).holds(off, len(page)-b)
			v, gb, ok := Resolve(page, k)
			if ok != want || ok && (gb != b || len(v.Words) != Header(page[b]).SizeWords() || &v.Words[0] != &page[b]) {
				return false
			}
			if k+WordsPerPointer > len(page) {
				continue // ResolveRead reads the whole key pointer
			}
			rv, base, rok, err := ResolveRead(read, uint64(k)*8, len(page))
			if err != nil || rok != ok || ok && (base != uint64(b)*8 || len(rv.Words) != len(v.Words)) {
				return false
			}
			av, aok := At(page, k)
			rv, rok, err = ReadAt(read, uint64(k)*8, len(page))
			if err != nil || aok != rok || aok && len(av.Words) != len(rv.Words) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestResolveWrittenRecord: every key pointer of a written record resolves
// to it, and no other word of it does.
func TestResolveWrittenRecord(t *testing.T) {
	spec := Spec{Payload: []byte(`{"id": 1, "repo": "spark"}`), ValueRegion: []byte("spark"), Checksum: true,
		Pointers: []PointerSpec{{PSFID: 1}, {PSFID: 2, Mode: ModeValueRegion, ValSize: 5}, {PSFID: 3}}}
	page := make([]uint64, 4+spec.SizeWords())
	spec.Write(page[4 : 4+spec.SizeWords()])
	View{Words: page[4:]}.SetVisible()
	for k := 4; k < 4+spec.SizeWords(); k++ {
		_, b, ok := Resolve(page, k)
		slot := k - 4 - HeaderWords
		if want := slot >= 0 && slot%WordsPerPointer == 0 && slot/WordsPerPointer < len(spec.Pointers); ok != want || ok && b != 4 {
			t.Errorf("word %d: Resolve = (%d, %v), want ok %v", k, b, ok, want)
		}
	}
	if v, ok := At(page, 4); !ok || len(v.Words) != spec.SizeWords() {
		t.Fatalf("At(header) = %d words, %v", len(v.Words), ok)
	}
	if _, ok := At(page, 0); ok {
		t.Fatal("At accepted a zero header")
	}
}
