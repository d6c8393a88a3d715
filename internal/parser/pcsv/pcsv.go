// Package pcsv is a projecting CSV parser (Appendix G of the paper:
// "FishStore exposes a generic parser interface ... we implemented a CSV
// parser and plugged it into FishStore").
//
// A factory is constructed with the column header; a session then extracts
// only the requested columns, scanning each record just far enough to cover
// the highest requested column index. Values are typed by sniffing
// (number / bool / string), and raw byte offsets are reported so field
// projection PSFs get zero-copy key pointers. A cell is a view of the
// payload; a quoted cell with doubled quotes ("" for ", RFC 4180) is decoded
// into a per-session arena and reports no offset.
package pcsv

import (
	"bytes"
	"fmt"
	"strconv"
	"unsafe"

	"fishstore/internal/expr"
	"fishstore/internal/parser"
)

// Factory creates CSV sessions for a fixed column schema.
type Factory struct {
	columns map[string]int
	comma   byte
}

// New returns a CSV parser factory for the given header columns.
func New(header []string) *Factory {
	cols := make(map[string]int, len(header))
	for i, h := range header {
		cols[h] = i
	}
	return &Factory{columns: cols, comma: ','}
}

// Name implements parser.Factory.
func (*Factory) Name() string { return "pcsv" }

// NewSession implements parser.Factory.
func (f *Factory) NewSession(fields []string) (parser.Session, error) {
	idx := make([]int, len(fields))
	maxCol := -1
	for i, name := range fields {
		c, ok := f.columns[name]
		if !ok {
			return nil, fmt.Errorf("pcsv: unknown column %q", name)
		}
		idx[i] = c
		if c > maxCol {
			maxCol = c
		}
	}
	return &session{fields: fields, idx: idx, maxCol: maxCol, comma: f.comma}, nil
}

type session struct {
	fields []string
	idx    []int
	maxCol int
	comma  byte
	parsed parser.Parsed
	spans  []span
	arena  []byte // this record's decoded cells; emptied by Parse
}

// span locates a cell's text; quoted reports doubled quotes inside it.
type span struct {
	start, end int
	quoted     bool
}

// Parse implements parser.Session. It splits only as many columns as
// needed, honoring double-quoted fields with "" escapes.
func (s *session) Parse(payload []byte) (*parser.Parsed, error) {
	s.parsed.Reset()
	if s.maxCol < 0 {
		return &s.parsed, nil
	}
	s.spans = s.spans[:0]
	s.arena = s.arena[:0]
	col := 0
	i := 0
	n := len(payload)
	// Trim a trailing newline if present.
	for n > 0 && (payload[n-1] == '\n' || payload[n-1] == '\r') {
		n--
	}
	for col <= s.maxCol && i <= n {
		start := i
		end := -1
		doubled := false
		if i < n && payload[i] == '"' {
			// Quoted field: scan to closing quote (doubled quotes escape).
			j := i + 1
			for j < n {
				if payload[j] == '"' {
					if j+1 < n && payload[j+1] == '"' {
						doubled = true
						j += 2
						continue
					}
					break
				}
				j++
			}
			start = i + 1
			end = j
			i = j + 1
			// Skip to comma.
			for i < n && payload[i] != s.comma {
				i++
			}
		} else {
			for i < n && payload[i] != s.comma {
				i++
			}
			end = i
		}
		s.spans = append(s.spans, span{start, end, doubled})
		col++
		i++ // past the comma
	}
	for k, c := range s.idx {
		if c >= len(s.spans) {
			continue // short row: column missing
		}
		sp := s.spans[c]
		f := parser.Field{Path: s.fields[k], Offset: sp.start, Len: sp.end - sp.start}
		cell := view(payload[sp.start:sp.end])
		if sp.quoted {
			cell = s.unquote(payload[sp.start:sp.end])
			f.Offset, f.Len = -1, 0
		}
		f.Value = sniff(cell)
		s.parsed.Add(f)
	}
	return &s.parsed, nil
}

// unquote decodes a quoted cell's doubled quotes onto the arena and returns
// the decoded text as a view of it. Parse ended the cell at its first lone
// quote, so every quote inside raw is the first of a pair.
func (s *session) unquote(raw []byte) string {
	start := len(s.arena)
	for {
		k := bytes.IndexByte(raw, '"')
		if k < 0 {
			s.arena = append(s.arena, raw...)
			break
		}
		s.arena = append(s.arena, raw[:k+1]...)
		raw = raw[k+2:]
	}
	return view(s.arena[start:])
}

// view returns b as a string that shares b's bytes.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// sniff types a CSV cell: empty -> null, numeric -> number, true/false ->
// bool, otherwise string.
func sniff(cell string) expr.Value {
	if cell == "" {
		return expr.Null()
	}
	switch cell {
	case "true":
		return expr.BoolVal(true)
	case "false":
		return expr.BoolVal(false)
	}
	c := cell[0]
	if c == '-' || c == '+' || (c >= '0' && c <= '9') || c == '.' {
		if f, err := strconv.ParseFloat(cell, 64); err == nil {
			return expr.NumberVal(f)
		}
	}
	return expr.StringVal(cell)
}
