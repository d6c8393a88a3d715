// Package hotalloctest seeds the allocation shapes fishlint's hotalloc
// analyzer budgets inside //fishlint:hotpath call trees: escaping composite
// literals, make/new, string<->[]byte conversions, interface boxing, string
// concatenation, append growth, and closures. Functions outside a hot tree
// allocate freely — the analyzer is a hot-path budget, not a global ban.
package hotalloctest

type rec struct {
	key  uint64
	data []byte
}

type sink interface {
	accept(v any)
}

//fishlint:hotpath per-record parse loop
func parseOne(b []byte, out *rec) string {
	out.data = append(out.data, b...) // want hotalloc "append may grow its backing array"
	s := string(b)                    // want hotalloc "copies its operand"
	return s + "!"                    // want hotalloc "string concatenation allocates"
}

//fishlint:hotpath psf evaluation over a batch
func evalRoot(rs []rec) int {
	n := 0
	for i := range rs {
		n += hop(&rs[i])
	}
	return n
}

// hop is not annotated itself: it is hot via the call edge from evalRoot.
func hop(r *rec) int {
	tmp := &rec{key: r.key} // want hotalloc "composite literal escapes to the heap"
	return int(tmp.key)
}

//fishlint:hotpath scan visit callback
func drain(s sink, r *rec) {
	s.accept(r.key) // want hotalloc "boxes it on the heap"
	s.accept(r)     // pointers fit the interface data word: no boxing
}

//fishlint:hotpath chain hop index
func index(keys []uint64) map[uint64]int {
	m := make(map[uint64]int, len(keys)) // want hotalloc "allocates"
	bump := func(k uint64) { m[k]++ }    // want hotalloc "closure allocates its captured environment"
	for _, k := range keys {
		bump(k)
	}
	return m
}

//fishlint:hotpath trailer staging
func slices() []uint64 {
	return []uint64{1, 2, 3} // want hotalloc "slice literal allocates its backing array"
}

// cold is neither annotated nor reachable from an annotated root: its
// allocations are out of budget scope and must not be reported.
func cold() []byte {
	buf := make([]byte, 64)
	buf = append(buf, '!')
	return buf
}

// find is generic: an instantiation passes its arguments unboxed.
func find[S ~[]E, E comparable](s S, v E) int {
	for i := range s {
		if s[i] == v {
			return i
		}
	}
	return -1
}

//fishlint:hotpath key lookup
func lookup(keys [][]byte, m map[string]int, want string) int {
	for _, k := range keys {
		if string(k) == want { // compared in place: no copy
			return m[string(k)] // a map key read in place: no copy
		}
	}
	return find(keys[0], 'x') // type parameters, not interfaces: nothing is boxed
}

//fishlint:hotpath key interning
func intern(m map[string]int, k []byte) {
	m[string(k)] = len(m) // want hotalloc "copies its operand"
}

// code is an error carried in a word, like an address.
type code uint64

func (c code) Error() string { return "code" }

//fishlint:hotpath per-hop resolution
func resolve(k uint64) (uint64, error) {
	if k == 0 {
		return 0, code(k) // want hotalloc "returning fishstore/internal/lint/testdata/src/hotalloctest.code as error boxes it on the heap"
	}
	check := func() error { // want hotalloc "closure allocates its captured environment"
		return code(k) // want hotalloc "boxes it on the heap"
	}
	if k == 1 {
		return k, check() // already an interface: no boxing
	}
	return k, nil
}
