package pjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"fishstore/internal/expr"
	"fishstore/internal/parser/fulljson"
)

// FuzzParseNoPanic feeds arbitrary bytes through the structural-index
// parser. The parser may reject invalid input with an error but must never
// panic or read out of bounds. On valid JSON it is a differential test
// against two oracles: every probed path must have the kind and value
// encoding/json gives it, missing and null included, and the value the
// full-DOM parser (fulljson) extracts, on the first (learning) and the
// second (speculating) parse through one session. Values are checked after
// all fields are extracted, so an escaped string decoded over another
// field's bytes fails.
func FuzzParseNoPanic(f *testing.F) {
	seeds := []string{
		`{"a": 1, "b": {"c": "x"}}`,
		`{"a": [1, {"b": 2}], "b": true}`,
		`{"a": "esc\"aped", "b": null}`,
		`{"a":}`,
		`{{{{`,
		`}}}}`,
		`"just a string"`,
		`{"a": "unterminated`,
		"{\"a\u0000b\": 1}",
		`{"a": 1e999}`,
		`{"a": -}`,
		"{\"a\"\x00: 1}",
		`{"b": {"c": {"d": {"e": 1}}}}`,
		``,
		`{"a":"#tag","b":"ok"}`,
		`{"a": "\ud83d\ude00 \ud800 \u00e9", "b": {"c": {"d": [null]}}}`,
		// Two or more escaped fields of interest in one record.
		`{"a": "one\ntwo", "b": {"c": {"d": "th\"ree"}}}`,
		`{"a": "\u00e9\u00e8", "b": {"x": "\t", "c": {"d": "\\\/", "e": "\r"}}}`,
		`{"b": {"c": {"d": "` + strings.Repeat(`\"`, 40) + `"}}, "a": "` + strings.Repeat(`\u0041`, 70) + `"}`,
		`{"a": "\b", "b": "\f"}`,
	}
	// Escape runs of every parity straddling the 64- and 128-byte block
	// boundaries, with the probed fields after them.
	for _, end := range []int{62, 63, 64, 65, 126, 127, 128, 129} {
		for _, run := range []string{`\\`, `\"`, `\\\"`, `\\\\`} {
			pad := strings.Repeat("x", max(0, end-len(run)-len(`{"z": "`)))
			seeds = append(seeds, `{"z": "`+pad+run+`", "a": "#", "b": {"c": {"d": "ok"}}}`)
		}
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	fields := []string{"a", "b", "b.c", "b.c.d"}
	f.Fuzz(func(t *testing.T, data []byte) {
		sess, err := New().NewSession(fields)
		if err != nil {
			t.Fatal(err)
		}
		full, err := fulljson.New().NewSession(fields)
		if err != nil {
			t.Fatal(err)
		}
		doc, comparable := oracleDecode(data)
		_, isObject := doc.(map[string]any)
		for pass := 0; pass < 2; pass++ {
			p, perr := sess.Parse(data)
			if !comparable {
				continue // rejecting is fine; not panicking is the check
			}
			if perr != nil {
				t.Fatalf("pass %d: %v on valid %q", pass, perr, data)
			}
			fp, ferr := full.Parse(data)
			if ferr != nil && isObject {
				t.Fatalf("pass %d: fulljson: %v on valid %q", pass, ferr, data)
			}
			for _, path := range fields {
				want, present := oracleLookup(doc, path)
				got := p.Lookup(path)
				if msg := mismatch(want, present, got); msg != "" {
					t.Fatalf("pass %d: %s: %s on %q", pass, path, msg, data)
				}
				if ferr != nil {
					continue // fulljson decodes objects only
				}
				if msg := sameValue(got, fp.Lookup(path)); msg != "" {
					t.Fatalf("pass %d: %s: pjson and fulljson differ: %s on %q", pass, path, msg, data)
				}
			}
		}
	})
}

// sameValue describes how pjson's value differs from fulljson's, or
// returns "". A composite is compared decoded: pjson returns its raw text,
// fulljson re-encodes it (escaping keys and strings its own way).
func sameValue(got, full expr.Value) string {
	if got.Kind == expr.KindString && full.Kind == expr.KindString && got.Str != full.Str {
		var g, f any
		if json.Unmarshal([]byte(got.Str), &g) == nil && json.Unmarshal([]byte(full.Str), &f) == nil &&
			reflect.DeepEqual(g, f) {
			return ""
		}
	}
	if got != full {
		return fmt.Sprintf("pjson %#v, fulljson %#v", got, full)
	}
	return ""
}

// oracleDecode decodes data with encoding/json into maps, slices and
// scalars. It reports false for inputs outside pjson's contract: invalid
// JSON or UTF-8 (pjson validates neither), duplicate keys (pjson keeps the
// first, encoding/json the last), escaped keys (pjson matches raw bytes)
// and numbers out of float64 range (pjson rejects them).
func oracleDecode(data []byte) (any, bool) {
	if !utf8.Valid(data) || !json.Valid(data) {
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var value func() (any, bool)
	value = func() (any, bool) {
		tok, err := dec.Token()
		if err != nil {
			return nil, false
		}
		switch tok := tok.(type) {
		case json.Delim:
			if tok == '[' {
				var arr []any
				for dec.More() {
					v, ok := value()
					if !ok {
						return nil, false
					}
					arr = append(arr, v)
				}
				_, err := dec.Token()
				return arr, err == nil
			}
			obj := map[string]any{}
			for dec.More() {
				from := dec.InputOffset()
				key, err := dec.Token()
				if err != nil || bytes.IndexByte(data[from:dec.InputOffset()], '\\') >= 0 {
					return nil, false
				}
				k := key.(string)
				if _, dup := obj[k]; dup {
					return nil, false
				}
				v, ok := value()
				if !ok {
					return nil, false
				}
				obj[k] = v
			}
			_, err := dec.Token()
			return obj, err == nil
		case json.Number:
			f, err := strconv.ParseFloat(string(tok), 64)
			return f, err == nil
		}
		return tok, true
	}
	return value()
}

// oracleLookup follows a dotted path through decoded objects.
func oracleLookup(doc any, path string) (any, bool) {
	for _, key := range strings.Split(path, ".") {
		obj, ok := doc.(map[string]any)
		if !ok {
			return nil, false
		}
		if doc, ok = obj[key]; !ok {
			return nil, false
		}
	}
	return doc, true
}

// mismatch describes how got differs from the oracle's (want, present), or
// returns "". pjson returns a composite value as its raw text.
func mismatch(want any, present bool, got expr.Value) string {
	var ok bool
	switch w := want.(type) {
	case nil:
		ok = !present && got.Kind == expr.KindMissing || present && got.Kind == expr.KindNull
	case bool:
		ok = got.Kind == expr.KindBool && got.Bool == w
	case float64:
		ok = got.Kind == expr.KindNumber && got.Num == w
	case string:
		ok = got.Kind == expr.KindString && got.Str == w
	default:
		raw, valid := oracleDecode([]byte(got.Str))
		ok = got.Kind == expr.KindString && valid && reflect.DeepEqual(raw, want)
	}
	if ok {
		return ""
	}
	return fmt.Sprintf("got %#v, want %#v (present %v)", got, want, present)
}

// FuzzExprParse ensures the predicate compiler never panics.
func FuzzExprParse(f *testing.F) {
	for _, s := range []string{
		`a == "x" && b > 3`, `!(a || b)`, `a.b.c <= -1.5e3`, `((((`, `a ==`,
		`"unterminated`, `a # b`, `true && false || null == x`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := expr.Parse(src)
		if err != nil {
			return
		}
		// Evaluate against an empty record; must not panic.
		_ = e.Eval(expr.Lookup(func(string) expr.Value { return expr.Missing() }))
		_ = e.Fields()
		_ = e.String()
	})
}
