// Package bloom implements the blocked Bloom filter used by the LSM-tree
// baseline's SSTables (RocksDB attaches a Bloom filter to every table file
// to skip point lookups that cannot match).
package bloom

import "encoding/binary"

// Filter is a serializable Bloom filter.
type Filter struct {
	bits []uint64
	k    int
}

// New sizes a filter for n keys at bitsPerKey (RocksDB default 10, ~1% FPR).
func New(n int, bitsPerKey int) *Filter {
	if n < 1 {
		n = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 10
	}
	nbits := n * bitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	// k = ln2 * bits/key, clamped to [1, 16].
	k := int(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{bits: make([]uint64, (nbits+63)/64), k: k}
}

// hash pair via 64-bit FNV-1a with two salts (double hashing).
func hash2(key []byte) (uint64, uint64) {
	const offset, prime = 14695981039346656037, 1099511628211
	h1 := uint64(offset)
	for _, c := range key {
		h1 ^= uint64(c)
		h1 *= prime
	}
	h2 := h1
	h2 ^= 0xff
	h2 *= prime
	h2 |= 1 // ensure odd stride
	return h1, h2
}

// Add inserts key.
func (f *Filter) Add(key []byte) {
	h, d := hash2(key)
	n := uint64(len(f.bits) * 64)
	for i := 0; i < f.k; i++ {
		bit := h % n
		f.bits[bit/64] |= 1 << (bit % 64)
		h += d
	}
}

// MayContain reports whether key may have been added (false positives
// possible, false negatives impossible).
func (f *Filter) MayContain(key []byte) bool {
	h, d := hash2(key)
	n := uint64(len(f.bits) * 64)
	for i := 0; i < f.k; i++ {
		bit := h % n
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
		h += d
	}
	return true
}

// Marshal serializes the filter.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 8+len(f.bits)*8)
	binary.LittleEndian.PutUint64(out, uint64(f.k))
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(out[8+i*8:], w)
	}
	return out
}

// Unmarshal deserializes a filter produced by Marshal.
func Unmarshal(b []byte) *Filter {
	if len(b) < 16 {
		return New(1, 10)
	}
	k := int(binary.LittleEndian.Uint64(b))
	if k < 1 || k > 16 {
		k = 7
	}
	bits := make([]uint64, (len(b)-8)/8)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(b[8+i*8:])
	}
	return &Filter{bits: bits, k: k}
}
