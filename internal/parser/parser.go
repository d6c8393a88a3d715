// Package parser defines FishStore's generic parser interface (§3.2, §6.1).
//
// A parser is instantiated per ingestion worker ("thread-local") for a fixed
// set of dotted field paths — the union of the fields of interest of all
// active PSFs. Whenever PSF registration changes that set, the worker
// recreates its session (§6.1). The interface supports the two capabilities
// FishStore needs from a parser: batched parsing, and the targeted
// extraction of a few fields.
//
// Three implementations ship with this repository:
//
//   - pjson: a partial JSON parser in the spirit of Mison, built on
//     word-parallel structural bitmaps; it never materializes a DOM.
//   - fulljson: a full DOM parser built on encoding/json, standing in for
//     RapidJSON in the paper's baselines (deliberately allocation-heavy).
//   - pcsv: a projecting CSV parser.
//
// # Value lifetime
//
// pjson and pcsv return string values as views, not copies: an unescaped
// string, a composite's raw text and a CSV cell read the payload bytes in
// place, and an escaped string is decoded into an arena the session reuses.
// A value is therefore valid until the session's next Parse, and only while
// the payload bytes do not change — the lifetime Field.Offset and Field.Len
// already have. A caller that keeps a value past that calls strings.Clone.
package parser

import (
	"fishstore/internal/expr"
)

// Field is one extracted field of interest. A string Value may view the
// payload or session memory: see the package doc for its lifetime.
type Field struct {
	// Path is the dotted path that was requested.
	Path string
	// Value is the typed field value.
	Value expr.Value
	// Offset/Len locate the raw value text inside the payload, when the
	// parser can provide it (enables zero-copy ModePayload key pointers).
	// Offset is -1 when unavailable. For strings the span excludes quotes.
	Offset int
	Len    int
}

// Parsed holds the extracted fields of one record. The contents are only
// valid until the session's next Parse call, and only while the payload
// bytes do not change. A session extracts at most a few dozen fields, so
// lookups scan Fields instead of keeping a per-record index.
type Parsed struct {
	Fields []Field
}

// find returns the index of path in Fields, or -1.
func (p *Parsed) find(path string) int {
	for i := range p.Fields {
		if p.Fields[i].Path == path {
			return i
		}
	}
	return -1
}

// Lookup returns the value of path, or missing.
func (p *Parsed) Lookup(path string) expr.Value {
	if i := p.find(path); i >= 0 {
		return p.Fields[i].Value
	}
	return expr.Missing()
}

// Get returns the Field for path.
func (p *Parsed) Get(path string) (Field, bool) {
	if i := p.find(path); i >= 0 {
		return p.Fields[i], true
	}
	return Field{}, false
}

// Reset clears p for reuse, keeping allocations.
func (p *Parsed) Reset() { p.Fields = p.Fields[:0] }

// Add appends a field; the first occurrence of a path wins.
func (p *Parsed) Add(f Field) {
	if p.find(f.Path) >= 0 {
		return
	}
	p.Fields = append(p.Fields, f)
}

// Session extracts a fixed set of fields from raw records. Sessions are not
// safe for concurrent use; each ingestion worker owns one.
type Session interface {
	// Parse extracts the session's fields of interest from payload. The
	// returned Parsed is owned by the session and valid until the next call.
	Parse(payload []byte) (*Parsed, error)
}

// Factory creates sessions. A Factory is safe for concurrent use.
type Factory interface {
	// Name identifies the parser (for reports).
	Name() string
	// NewSession compiles a session that extracts the given dotted paths.
	NewSession(fields []string) (Session, error)
}

// ParseBatch is a convenience helper that parses a batch of records,
// invoking fn for each record with its parse result. It mirrors the batched
// parser interface FishStore feeds data through.
func ParseBatch(s Session, batch [][]byte, fn func(i int, p *Parsed, err error) bool) {
	for i, rec := range batch {
		p, err := s.Parse(rec)
		if !fn(i, p, err) {
			return
		}
	}
}
