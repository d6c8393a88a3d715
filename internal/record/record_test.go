package record

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(size uint32, ptrs uint16, pad uint8, valWords uint16, ver uint8, cksum, filler, invalid, visible bool) bool {
		h := Header{
			SizeWords:  int(size) & maxSizeWords,
			NumPtrs:    int(ptrs) & maxPointers,
			PayloadPad: int(pad % 8),
			ValueWords: int(valWords) & maxValueWords,
			Version:    ver & 0xf,
			Checksum:   cksum,
			Indirect:   filler != invalid,
			Filler:     filler,
			Invalid:    invalid,
			Visible:    visible,
		}
		return UnpackHeader(PackHeader(h)) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyPointerRoundTrip(t *testing.T) {
	kps := []KeyPointer{
		{PrevAddress: 0, Mode: ModeBool, OffsetWords: 1, PSFID: 42, BoolValue: true},
		{PrevAddress: 1 << 40, Mode: ModeBool, OffsetWords: 3, PSFID: 7, BoolValue: false},
		{PrevAddress: 123456, Mode: ModePayload, OffsetWords: 5, PSFID: 999, ValOffset: 100, ValSize: 20},
		{PrevAddress: 99, Mode: ModeValueRegion, OffsetWords: 7, PSFID: 1, ValOffset: 0, ValSize: 8},
	}
	for _, kp := range kps {
		a := packA(kp.PrevAddress, kp.Mode, kp.OffsetWords)
		b := packB(kp)
		got := UnpackKeyPointer(a, b)
		if got != kp {
			t.Errorf("round trip: got %+v, want %+v", got, kp)
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
	if h.Visible {
		t.Fatal("record must be written invisible")
	}
	if h.NumPtrs != 2 || h.Version != 3 {
		t.Fatalf("header = %+v", h)
	}
	if got := v.Payload(); !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
	if v.PayloadLen() != len(payload) {
		t.Fatalf("PayloadLen = %d, want %d", v.PayloadLen(), len(payload))
	}

	kp0 := v.KeyPointerAt(0)
	if kp0.PSFID != 1 || kp0.Mode != ModeBool || !kp0.BoolValue {
		t.Fatalf("kp0 = %+v", kp0)
	}
	if kp0.OffsetWords != 1 {
		t.Fatalf("kp0.OffsetWords = %d, want 1", kp0.OffsetWords)
	}
	kp1 := v.KeyPointerAt(1)
	if kp1.OffsetWords != 3 {
		t.Fatalf("kp1.OffsetWords = %d, want 3", kp1.OffsetWords)
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
	if !v.Header().Visible {
		t.Fatal("SetVisible did not set the bit")
	}
	v.SetInvalid()
	h := v.Header()
	if !h.Invalid || !h.Visible {
		t.Fatal("SetInvalid must not clear visibility")
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
	if kp.PrevAddress != 0xdeadbeef {
		t.Fatalf("PrevAddress = %x", kp.PrevAddress)
	}
	if kp.PSFID != 5 || kp.Mode != ModeBool || !kp.BoolValue {
		t.Fatalf("non-address fields corrupted: %+v", kp)
	}
	if SwapPrevAddress(&words[wi], old, 0x1111) {
		t.Fatal("CAS with stale value succeeded")
	}
}

func TestFillerWord(t *testing.T) {
	h := UnpackHeader(FillerWord(512))
	if !h.Filler || h.SizeWords != 512 || h.Visible {
		t.Fatalf("filler header = %+v", h)
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
			if h.NumPtrs != n || h.SizeWords != spec.SizeWords() ||
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
	if !h.Checksum || h.TrailerWords() != 1 {
		t.Fatalf("header = %+v", h)
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

	// Header and pointer mutations (visibility, chain CAS) must not break the
	// seal — they are excluded from the checksum body.
	v.SetInvalid()
	SetPrevAddress(&words[v.PointerWordIndex(0)], 0xbeef00)
	if !v.ChecksumOK() {
		t.Fatal("header/pointer mutation broke the checksum")
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

func TestChecksumV0RecordsAlwaysPass(t *testing.T) {
	spec := Spec{Payload: []byte("v0 record"), Pointers: []PointerSpec{{PSFID: 3, Mode: ModeBool}}}
	words := make([]uint64, spec.SizeWords())
	spec.Write(words)
	v := View{Words: words}
	if v.Header().Checksum {
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
	if h := v.Header(); h.SizeWords != spec.SizeWords() {
		t.Fatalf("Seal mutated a v0 record: %+v", h)
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
