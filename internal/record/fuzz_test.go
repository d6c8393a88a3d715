package record

import "testing"

// FuzzRecordSeal checks the record seal over arbitrary payload and value
// bytes: a built and sealed record verifies, flipping any one body bit or
// sealed header bit fails verification, and every header word round-trips
// through Header.
func FuzzRecordSeal(f *testing.F) {
	f.Add([]byte(`{"id": 1, "repo": "spark"}`), []byte("spark"), uint64(0))
	f.Add([]byte{}, []byte{}, ^uint64(0))
	f.Add([]byte("x"), []byte{}, PackHeader(Header{SizeWords: 9, NumPtrs: 1, Checksum: true, Visible: true}))
	f.Fuzz(func(t *testing.T, payload, value []byte, hw uint64) {
		if h := UnpackHeader(hw); PackHeader(h) != hw || UnpackHeader(PackHeader(h)) != h {
			t.Fatalf("header %#x does not round-trip: %+v", hw, h)
		}
		if len(payload) > 256 || len(value) > 256 {
			return // every bit is flipped below; keep each input quick
		}
		spec := Spec{Payload: payload, ValueRegion: value, Checksum: true,
			Pointers: []PointerSpec{{PSFID: 1, Mode: ModeBool, BoolValue: true}}}
		words := make([]uint64, spec.SizeWords())
		spec.Write(words)
		v := View{Words: words}
		v.SetVisible()
		v.Seal()
		if !v.ChecksumOK() {
			t.Fatal("sealed record does not verify")
		}
		flip := func(w, bit int, where string) {
			words[w] ^= 1 << bit
			if v.ChecksumOK() {
				t.Fatalf("flipping %s bit %d of word %d went unnoticed", where, bit, w)
			}
			words[w] ^= 1 << bit
		}
		start, end := bodyBounds(v.Header())
		for w := start; w < end; w++ {
			for bit := 0; bit < 64; bit++ {
				flip(w, bit, "body")
			}
		}
		for bit := 0; bit < 64; bit++ {
			// Fillers carry no seal, so the filler bit is exempt.
			if m := uint64(1) << bit; hdrSealedMask&m != 0 && m != hdrFillerBit {
				flip(0, bit, "header")
			}
		}
	})
}
