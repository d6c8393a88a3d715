//go:build armbe || arm64be || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || sparc || sparc64

package wordio

// Bytes reinterprets log words as their in-memory bytes, and the on-device
// format is little-endian words. On a big-endian target every record would
// come back byte-swapped, so the build stops here instead.
var _ = wordio_requires_a_little_endian_target
