// Package wordio makes a hybrid-log word slice and its bytes the same
// memory.
//
// FishStore's hybrid log pages are represented as []uint64 rather than
// []byte so that every 8-byte word — hash-chain key pointers, record
// headers — can be read and CASed with sync/atomic. Record payloads and the
// on-device format are bytes in little-endian word order. On a
// little-endian host those bytes are exactly the words' in-memory
// representation, so Bytes returns a view instead of a converted copy:
// device pages are read straight into the words a scan walks, and record
// bytes are copied straight out of them. The package refuses to build for
// big-endian targets (see bigendian.go).
package wordio

import "unsafe"

// Bytes returns the bytes of words: a slice of len(words)*8 bytes aliasing
// the same memory, so writes through either are visible through the other.
// Byte i is byte i%8 (least significant first) of words[i/8]. An empty
// words yields nil.
func Bytes(words []uint64) []byte {
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)
}

// WordsFor returns the number of 8-byte words needed to hold n bytes.
func WordsFor(n int) int { return (n + 7) / 8 }
