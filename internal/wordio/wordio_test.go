package wordio

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// TestRoundTripProperty: bytes copied into Bytes(words) are the words'
// little-endian encoding, and read back through Bytes unchanged.
func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		words := make([]uint64, WordsFor(len(data)))
		copy(Bytes(words), data)
		padded := make([]byte, len(words)*8)
		copy(padded, data)
		for i, w := range words {
			if w != binary.LittleEndian.Uint64(padded[i*8:]) {
				return false
			}
		}
		return bytes.Equal(Bytes(words)[:len(data)], data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesAliasesWords(t *testing.T) {
	words := []uint64{0x0807060504030201, 0}
	b := Bytes(words)
	if len(b) != 16 {
		t.Fatalf("len = %d, want 16", len(b))
	}
	if want := []byte{1, 2, 3, 4, 5, 6, 7, 8}; !bytes.Equal(b[:8], want) {
		t.Fatalf("bytes of word 0 = %x, want %x (little-endian)", b[:8], want)
	}
	b[8] = 0xaa
	if words[1] != 0xaa {
		t.Fatalf("write through bytes: word 1 = %#x, want 0xaa", words[1])
	}
	words[0] = 0xff << 56
	if b[7] != 0xff || b[0] != 0 {
		t.Fatalf("write through words not visible in bytes: %x", b[:8])
	}
	if sub := Bytes(words[1:]); &sub[0] != &b[8] {
		t.Fatal("Bytes of a sub-slice does not alias the same memory")
	}
}

func TestWordsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 7: 1, 8: 1, 9: 2, 16: 2, 17: 3}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Errorf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	if b := Bytes(nil); b != nil {
		t.Fatalf("Bytes(nil) = %v, want nil", b)
	}
	if b := Bytes(make([]uint64, 0, 4)); b != nil {
		t.Fatalf("Bytes(empty) = %v, want nil", b)
	}
}
