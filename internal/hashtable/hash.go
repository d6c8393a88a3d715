package hashtable

// 64-bit FNV-1a, inlined to avoid the allocation overhead of hash/fnv on the
// ingestion hot path. FishStore hashes the concatenation of a PSF id and the
// property value bytes (§5.1).

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashProperty hashes a (PSF id, value) property, the hash signature of
// §5.1: H(f(r)=v) = Hash(fid(f) ++ v). Any suffix bytes are hashed as if
// appended to value, so a caller can extend a value without copying it.
func HashProperty(psfID uint16, value []byte, suffix ...byte) uint64 {
	h := uint64(fnvOffset)
	h ^= uint64(psfID & 0xff)
	h *= fnvPrime
	h ^= uint64(psfID >> 8)
	h *= fnvPrime
	for _, c := range value {
		h ^= uint64(c)
		h *= fnvPrime
	}
	for _, c := range suffix {
		h ^= uint64(c)
		h *= fnvPrime
	}
	// Finalize with a strong mix so that low bits (bucket index) and high
	// bits (tag) are both well distributed even for short values.
	return mix64(h)
}

// mix64 is the finalizer from splitmix64.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
