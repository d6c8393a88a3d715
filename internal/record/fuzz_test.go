package record

import "testing"

// FuzzRecordSeal checks the record seal over arbitrary payload and value
// bytes: a built and sealed record verifies, and flipping any one body bit or
// header bit but the filler bit fails verification.
func FuzzRecordSeal(f *testing.F) {
	f.Add([]byte(`{"id": 1, "repo": "spark"}`), []byte("spark"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("x"), []byte{})
	f.Fuzz(func(t *testing.T, payload, value []byte) {
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
			if uint64(1)<<bit != hdrFillerBit {
				flip(0, bit, "header")
			}
		}
	})
}
