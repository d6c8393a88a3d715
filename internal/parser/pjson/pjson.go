// Package pjson is a projecting ("partial") JSON parser in the spirit of
// Mison (Li et al., VLDB 2017), the parser FishStore plugs in for JSON
// ingestion (§3.2).
//
// Like Mison it navigates a *structural index* instead of tokenizing: a
// bitmap of the structural characters (: { } [ ]) outside string literals,
// and a leveled list of colon positions per nesting depth. Unlike a
// build-then-walk parser, the index is built lazily, one 64-byte block at a
// time, and only as far as the walk asks for it: fields of interest near
// the start of a record are extracted without indexing the rest. A block
// is indexed in one pass — exact SWAR byte compares over 8-byte words (the
// original uses SIMD; this is the same algorithm at one-eighth the lane
// width), an in-string mask by prefix-XOR of the unescaped quotes carried
// across blocks, and the colons pushed onto their level while the depth is
// tracked. A full-object walk (a requested key is missing, or the schema
// changed) and the extent of a composite value still index through the end
// of the object.
//
// On top of the index sits *schema speculation* (Mison's phase 2): each
// object remembers at which colon ordinals its requested keys appeared in
// the previous record and verifies those positions first, falling back to
// a full object scan (and re-learning) on a miss. Speculating on a stable
// schema therefore stops indexing one colon past the last field of
// interest. The parser never materializes a DOM and allocates nothing per
// record once its buffers are warm: string and composite values are views
// of the payload, and an escaped string is decoded into a per-session arena
// (see the parser package doc for how long a value lives).
//
// pjson does not validate its input: keys are matched by their raw bytes
// (an escaped key never matches), and strings are returned without UTF-8
// validation (an invalid byte is passed through, not replaced by U+FFFD).
package pjson

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"fishstore/internal/expr"
	"fishstore/internal/parser"
)

// Factory creates pjson sessions.
type Factory struct {
	// disableSpeculation turns off the schema-speculation fast path
	// (exposed for the ablation benchmark).
	disableSpeculation bool
}

// New returns the partial JSON parser factory.
func New() *Factory { return &Factory{} }

// NewWithoutSpeculation returns a factory whose sessions always scan every
// key of every visited object (Mison without its phase-2 speculation).
func NewWithoutSpeculation() *Factory { return &Factory{disableSpeculation: true} }

// Name implements parser.Factory.
func (*Factory) Name() string { return "pjson" }

// NewSession compiles a session extracting the given dotted paths.
func (f *Factory) NewSession(fields []string) (parser.Session, error) {
	root := &trieNode{children: map[string]*trieNode{}}
	maxDepth := 0
	for _, f := range fields {
		if f == "" {
			return nil, fmt.Errorf("pjson: empty field path")
		}
		parts := strings.Split(f, ".")
		if len(parts) > maxDepth {
			maxDepth = len(parts)
		}
		n := root
		for _, part := range parts {
			child := n.children[part]
			if child == nil {
				child = &trieNode{key: part, children: map[string]*trieNode{}}
				n.children[part] = child
			}
			n = child
		}
		n.leafPath = f
	}
	root.presize()
	return &session{
		trie:      root,
		maxDepth:  maxDepth,
		speculate: !f.disableSpeculation,
		colons:    make([][]int32, maxDepth),
	}, nil
}

type trieNode struct {
	key      string // this node's key in its parent object
	children map[string]*trieNode
	leafPath string // non-empty if a requested path ends here

	// spec is the node's speculation state (Mison's phase 2): the ordinal,
	// within the parent object's colon run, at which each requested child
	// key was found in the previous record, in document order. Records
	// from one source overwhelmingly share a schema, so on the next record
	// the parser jumps straight to those colons and merely verifies the
	// keys, skipping the key extraction of every irrelevant field. The
	// pattern is usable only when it covers every child; any miss falls
	// back to the full scan of the object and re-learns it.
	spec []specEntry
}

type specEntry struct {
	ord   int
	child *trieNode
}

// presize gives every node's speculation state its final capacity, so
// learning a pattern never allocates.
func (n *trieNode) presize() {
	n.spec = make([]specEntry, 0, len(n.children))
	for _, c := range n.children {
		c.presize()
	}
}

type session struct {
	trie      *trieNode
	maxDepth  int
	speculate bool

	// speculation statistics (observable via Stats; used by tests).
	specHits   int64
	specMisses int64

	parsed parser.Parsed

	// Per-record structural index, indexed up to len(structBits)*64 bytes.
	payload    []byte
	structBits []uint64  // per block: : { } [ ] outside strings
	colons     [][]int32 // colon positions per level (index 0 = level 1)
	inString   uint64    // all ones iff the next block starts inside a string
	depth      int       // nesting depth at the end of the indexed prefix

	// arena holds this record's decoded escaped strings. Parse empties it;
	// within a record it is only appended to, so a decoded value is never
	// overwritten before the next Parse.
	arena []byte

	verr valueError // the malformed-value error, valid until the next Parse
}

const (
	ones  = 0x0101010101010101
	lows  = 0x7f7f7f7f7f7f7f7f
	highs = 0x8080808080808080
)

// eq sets the high bit of every byte of w equal to c, and only those: the
// carry-free zero-byte test never flags a neighbour of a match.
func eq(w uint64, c byte) uint64 {
	x := w ^ (ones * uint64(c))
	return ^(((x & lows) + lows) | x) & highs
}

// movemask packs the high bit of each byte of m into bits 0-7.
func movemask(m uint64) uint64 { return ((m >> 7) * 0x0102040810204080) >> 56 }

// classify returns the per-byte bitmaps of one 8-byte word: quotes,
// backslashes, and the structural characters. Setting bit 5 folds '[' onto
// '{' and ']' onto '}', so one compare serves each bracket pair.
func classify(w uint64) (quote, backslash, structural uint64) {
	folded := w | 0x2020202020202020
	return movemask(eq(w, '"')), movemask(eq(w, '\\')),
		movemask(eq(w, ':') | eq(folded, '{') | eq(folded, '}'))
}

// prefixXOR sets bit i to the parity of bits 0..i of x.
func prefixXOR(x uint64) uint64 {
	x ^= x << 1
	x ^= x << 2
	x ^= x << 4
	x ^= x << 8
	x ^= x << 16
	x ^= x << 32
	return x
}

// indexBlock indexes the next 64-byte block of the payload: it appends the
// block's string-masked structural word to structBits and pushes its colons
// onto their levels.
func (s *session) indexBlock() {
	p := s.payload
	base := len(s.structBits) * 64
	var quote, backslash, structural uint64
	for k := 0; k < 64 && base+k < len(p); k += 8 {
		var w uint64
		if i := base + k; i+8 <= len(p) {
			w = binary.LittleEndian.Uint64(p[i:])
		} else {
			var tail [8]byte
			copy(tail[:], p[i:])
			w = binary.LittleEndian.Uint64(tail[:])
		}
		q, b, st := classify(w)
		quote |= q << k
		backslash |= b << k
		structural |= st << k
	}
	if backslash != 0 || base > 0 && p[base-1] == '\\' {
		for q := quote; q != 0; q &= q - 1 {
			if bit := bits.TrailingZeros64(q); s.isEscaped(base + bit) {
				quote &^= 1 << bit
			}
		}
	}
	inString := prefixXOR(quote) ^ s.inString
	s.inString = uint64(int64(inString) >> 63)
	structural &^= inString
	//lint:ignore hotalloc amortized: the session reuses structBits across records
	s.structBits = append(s.structBits, structural)
	for st := structural; st != 0; st &= st - 1 {
		pos := base + bits.TrailingZeros64(st)
		switch p[pos] {
		case '{', '[':
			s.depth++
		case '}', ']':
			s.depth--
		default: // ':'
			if s.depth >= 1 && s.depth <= s.maxDepth {
				//lint:ignore hotalloc amortized: the session reuses its colon lists across records
				s.colons[s.depth-1] = append(s.colons[s.depth-1], int32(pos))
			}
		}
	}
}

// more indexes one more block if some byte before to is not yet indexed,
// and reports whether it did.
func (s *session) more(to int) bool {
	if n := len(s.structBits) * 64; n >= to || n >= len(s.payload) {
		return false
	}
	s.indexBlock()
	return true
}

// colon returns the position of the i-th colon of level, indexing further
// only when it has to, or -1 if that colon does not lie before to.
func (s *session) colon(level, i, to int) int {
	for i >= len(s.colons[level-1]) {
		if !s.more(to) {
			return -1
		}
	}
	if pos := int(s.colons[level-1][i]); pos < to {
		return pos
	}
	return -1
}

// isEscaped reports whether the quote at pos is preceded by an odd number of
// backslashes.
func (s *session) isEscaped(pos int) bool {
	k := 0
	for i := pos - 1; i >= 0 && s.payload[i] == '\\'; i-- {
		k++
	}
	return k%2 == 1
}

// Parse implements parser.Session.
//
//fishlint:hotpath per-record JSON parse (~50% of ingest, Fig 12)
func (s *session) Parse(payload []byte) (*parser.Parsed, error) {
	s.parsed.Reset()
	if len(s.trie.children) == 0 {
		return &s.parsed, nil
	}
	s.payload = payload
	s.arena = s.arena[:0]
	s.structBits = s.structBits[:0]
	for i := range s.colons {
		s.colons[i] = s.colons[i][:0]
	}
	s.inString, s.depth = 0, 0
	err := s.walkObject(s.trie, 1, 0, len(payload))
	return &s.parsed, err
}

// walkObject visits the level-`level` colons within [from, to) — the fields
// of one object — and extracts or descends per the trie. When the node has
// a learned speculation pattern, the parser first verifies the pattern's
// colons directly; only on a miss does it scan the whole object.
func (s *session) walkObject(node *trieNode, level, from, to int) error {
	for s.more(from) {
	}
	// Every colon before from is indexed, so later ones follow lo.
	lo, _ := slices.BinarySearch(s.colons[level-1], int32(from))
	if s.speculate && len(node.spec) == len(node.children) {
		if ok, err := s.walkSpeculative(node, level, lo, to); ok || err != nil {
			return err
		}
	}
	return s.walkFull(node, level, lo, to)
}

// walkSpeculative tries the learned pattern. It verifies every speculated
// key before extracting anything, so a miss (ok=false) leaves no partial
// state.
func (s *session) walkSpeculative(node *trieNode, level, lo, to int) (bool, error) {
	for _, e := range node.spec {
		pos := s.colon(level, lo+e.ord, to)
		if pos < 0 {
			s.specMisses++
			return false, nil
		}
		if key, ok := s.keyBefore(pos); !ok || string(key) != e.child.key {
			s.specMisses++
			return false, nil
		}
	}
	s.specHits++
	for _, e := range node.spec {
		i := lo + e.ord
		if err := s.visitField(e.child, level, i, s.colon(level, i, to), to); err != nil {
			return true, err
		}
	}
	return true, nil
}

// walkFull scans every colon of the object, extracting matches and
// (re)learning the speculation pattern.
func (s *session) walkFull(node *trieNode, level, lo, to int) error {
	learned := node.spec[:0]
	for i := lo; ; i++ {
		pos := s.colon(level, i, to)
		if pos < 0 {
			break
		}
		key, ok := s.keyBefore(pos)
		if !ok {
			continue
		}
		child := node.children[string(key)]
		if child == nil {
			continue
		}
		if s.speculate && !learnedHas(learned, child) {
			//lint:ignore hotalloc never grows: presize gives spec one slot per child
			learned = append(learned, specEntry{ord: i - lo, child: child})
		}
		if err := s.visitField(child, level, i, pos, to); err != nil {
			node.spec = learned[:0]
			return err
		}
	}
	node.spec = learned
	return nil
}

func learnedHas(spec []specEntry, child *trieNode) bool {
	for _, e := range spec {
		if e.child == child {
			return true
		}
	}
	return false
}

// visitField extracts and/or descends into the value of the level's i-th
// colon, at pos. The value is bounded by the next colon at this level
// (backed up over its key) or the enclosing region end.
func (s *session) visitField(child *trieNode, level, i, pos, to int) error {
	valueEnd := s.colon(level, i+1, to)
	if valueEnd < 0 {
		valueEnd = to
	}
	if child.leafPath != "" {
		if err := s.extractValue(child.leafPath, pos+1, valueEnd); err != nil {
			return err
		}
	}
	if len(child.children) > 0 {
		vs := skipWS(s.payload, pos+1, valueEnd)
		if vs < valueEnd && s.payload[vs] == '{' {
			return s.walkObject(child, level+1, vs+1, valueEnd)
		}
	}
	return nil
}

// SpecStats reports speculation hits and misses (for tests and benches).
func (s *session) SpecStats() (hits, misses int64) { return s.specHits, s.specMisses }

// keyBefore returns the raw bytes of the object key whose colon is at pos.
func (s *session) keyBefore(pos int) ([]byte, bool) {
	end := pos - 1
	for end >= 0 && isWS(s.payload[end]) {
		end--
	}
	if end < 0 || s.payload[end] != '"' {
		return nil, false
	}
	for i := end; ; {
		i = bytes.LastIndexByte(s.payload[:i], '"')
		if i < 0 {
			return nil, false
		}
		if !s.isEscaped(i) {
			return s.payload[i+1 : end], true
		}
	}
}

func isWS(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func skipWS(b []byte, i, end int) int {
	for i < end && isWS(b[i]) {
		i++
	}
	return i
}

// valueError reports a malformed value of a field of interest. The session
// owns one and formats its message only when read, so a malformed record
// costs the parse path no allocation.
type valueError struct {
	what string
	path string
	err  error // why the number did not parse
	c    byte  // the byte that starts no JSON value
}

func (e *valueError) Error() string {
	switch {
	case e.err != nil:
		return fmt.Sprintf("pjson: %s for %q: %v", e.what, e.path, e.err)
	case e.c != 0:
		return fmt.Sprintf("pjson: %s for %q: %q", e.what, e.path, e.c)
	}
	return fmt.Sprintf("pjson: %s for %q", e.what, e.path)
}

func (e *valueError) Unwrap() error { return e.err }

func (s *session) fail(e valueError) error {
	s.verr = e
	return &s.verr
}

// view returns payload[i:j] as a string that shares the payload's bytes.
func (s *session) view(i, j int) string {
	if i >= j {
		return ""
	}
	return unsafe.String(&s.payload[i], j-i)
}

// extractValue parses the scalar (or raw composite) value in [from, bound)
// and records it under path.
func (s *session) extractValue(path string, from, bound int) error {
	i := skipWS(s.payload, from, bound)
	if i >= bound {
		return s.fail(valueError{what: "empty value", path: path})
	}
	f := parser.Field{Path: path, Offset: -1}
	switch c := s.payload[i]; {
	case c == '"':
		content, end, escaped := s.scanString(i)
		if end < 0 {
			return s.fail(valueError{what: "unterminated string", path: path})
		}
		f.Value = expr.StringVal(content)
		if !escaped {
			f.Offset = i + 1
			f.Len = end - i - 1
		}
	case c == 't':
		if !hasPrefix(s.payload, i, "true") {
			return s.fail(valueError{what: "bad literal", path: path})
		}
		f.Value = expr.BoolVal(true)
		f.Offset, f.Len = i, 4
	case c == 'f':
		if !hasPrefix(s.payload, i, "false") {
			return s.fail(valueError{what: "bad literal", path: path})
		}
		f.Value = expr.BoolVal(false)
		f.Offset, f.Len = i, 5
	case c == 'n':
		if !hasPrefix(s.payload, i, "null") {
			return s.fail(valueError{what: "bad literal", path: path})
		}
		f.Value = expr.Null()
		f.Offset, f.Len = i, 4
	case c == '-' || (c >= '0' && c <= '9'):
		j := i + 1
		for j < len(s.payload) {
			d := s.payload[j]
			if d >= '0' && d <= '9' || d == '.' || d == 'e' || d == 'E' || d == '+' || d == '-' {
				j++
				continue
			}
			break
		}
		num, err := s.number(i, j)
		if err != nil {
			return s.fail(valueError{what: "bad number", path: path, err: err})
		}
		f.Value = expr.NumberVal(num)
		f.Offset, f.Len = i, j-i
	case c == '{' || c == '[':
		end := s.skipComposite(i)
		if end < 0 {
			return s.fail(valueError{what: "unterminated composite", path: path})
		}
		f.Value = expr.StringVal(s.view(i, end))
		f.Offset, f.Len = i, end-i
	default:
		return s.fail(valueError{what: "unexpected value byte", path: path, c: c})
	}
	s.parsed.Add(f)
	return nil
}

// number parses the number text payload[i:j]. An integer of at most 15
// digits is exact in a float64, so it is accumulated directly; anything else
// (a fraction, an exponent, more digits, malformed text) goes to
// strconv.ParseFloat, which gives the same value where both apply.
func (s *session) number(i, j int) (float64, error) {
	digits := s.payload[i:j]
	neg := digits[0] == '-'
	if neg {
		digits = digits[1:]
	}
	if len(digits) > 0 && len(digits) <= 15 {
		var n int64
		k := 0
		for ; k < len(digits) && digits[k]-'0' <= 9; k++ {
			n = n*10 + int64(digits[k]-'0')
		}
		if k == len(digits) {
			f := float64(n)
			if neg {
				f = -f // -0 stays negative, as ParseFloat keeps it
			}
			return f, nil
		}
	}
	return strconv.ParseFloat(s.view(i, j), 64)
}

// scanString scans the string literal opening at i (payload[i] == '"') and
// returns its decoded content, the index of the closing quote, and whether
// any escape was present.
func (s *session) scanString(i int) (string, int, bool) {
	j := i + 1
	escaped := false
	for j < len(s.payload) {
		switch s.payload[j] {
		case '\\':
			escaped = true
			j += 2
			continue
		case '"':
			if !escaped {
				return s.view(i+1, j), j, false
			}
			return s.unescapeString(s.payload[i+1 : j]), j, true
		}
		j++
	}
	return "", -1, false
}

// unescapeString decodes raw, the content of a string literal with at least
// one escape, onto the arena and returns the decoded text as a view of it.
func (s *session) unescapeString(raw []byte) string {
	start := len(s.arena)
	for len(raw) > 0 {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 || k+1 == len(raw) {
			s.arena = append(s.arena, raw...)
			break
		}
		s.arena = append(s.arena, raw[:k]...)
		c := raw[k+1]
		raw = raw[k+2:]
		switch c {
		case 'n':
			c = '\n'
		case 't':
			c = '\t'
		case 'r':
			c = '\r'
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'u':
			r, ok := hex4(raw, 0)
			if !ok {
				break // a malformed \u escape stands for a plain 'u'
			}
			raw = raw[4:]
			// A surrogate pair spells one rune in two escapes.
			if lo, ok := hex4(raw, 2); ok && utf16.IsSurrogate(r) && raw[0] == '\\' && raw[1] == 'u' {
				if pair := utf16.DecodeRune(r, lo); pair != unicode.ReplacementChar {
					r = pair
					raw = raw[6:]
				}
			}
			s.arena = utf8.AppendRune(s.arena, r)
			continue
		}
		s.arena = append(s.arena, c)
	}
	if len(s.arena) == start {
		return ""
	}
	return unsafe.String(&s.arena[start], len(s.arena)-start)
}

// hex4 decodes the four hex digits at raw[i:i+4].
func hex4(raw []byte, i int) (rune, bool) {
	if i+4 > len(raw) {
		return 0, false
	}
	//lint:ignore hotalloc ParseUint does not retain its argument, so the copy stays on the stack
	v, err := strconv.ParseUint(string(raw[i:i+4]), 16, 32)
	return rune(v), err == nil
}

// skipComposite returns the index just past the composite value starting at
// i (payload[i] is '{' or '['), indexing through its end if need be.
func (s *session) skipComposite(i int) int {
	depth := 0
	for w := i / 64; ; w++ {
		for w >= len(s.structBits) {
			if !s.more(len(s.payload)) {
				return -1
			}
		}
		word := s.structBits[w]
		if w == i/64 {
			word &^= uint64(1)<<(i%64) - 1
		}
		for ; word != 0; word &= word - 1 {
			pos := w*64 + bits.TrailingZeros64(word)
			switch s.payload[pos] {
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return pos + 1
				}
			}
		}
	}
}

func hasPrefix(b []byte, i int, s string) bool {
	if i+len(s) > len(b) {
		return false
	}
	return string(b[i:i+len(s)]) == s
}
