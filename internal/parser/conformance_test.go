// Cross-parser conformance: the partial (pjson) and full-DOM (fulljson)
// parsers must extract identical typed values for every field of interest
// on every synthetic dataset, since FishStore treats parsers as
// interchangeable (§3.2's generic parser interface).
package parser_test

import (
	"testing"

	"fishstore/internal/datagen"
	"fishstore/internal/expr"

	"fishstore/internal/parser/fulljson"
	"fishstore/internal/parser/pjson"
)

func conformanceFields(dataset string) []string {
	switch dataset {
	case "github":
		return []string{"id", "type", "actor.id", "repo.id", "repo.name",
			"payload.action", "payload.pull_request.head.repo.language", "public"}
	case "twitter":
		return []string{"id", "lang", "user.id", "user.lang", "user.followers_count",
			"user.statuses_count", "in_reply_to_user_id", "in_reply_to_screen_name",
			"possibly_sensitive"}
	case "twitter-simple":
		return []string{"id", "lang", "in_reply_to_user_id"}
	case "yelp":
		return []string{"review_id", "user_id", "business_id", "stars", "useful"}
	}
	return nil
}

func valuesEqual(a, b expr.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case expr.KindNumber:
		return a.Num == b.Num
	case expr.KindString:
		return a.Str == b.Str
	case expr.KindBool:
		return a.Bool == b.Bool
	}
	return true
}

func TestPartialMatchesFullDOM(t *testing.T) {
	gens := map[string]datagen.Generator{
		"github":         datagen.NewGithub(77, 1024),
		"twitter":        datagen.NewTwitter(77, 1024),
		"twitter-simple": datagen.NewTwitterSimple(77),
		"yelp":           datagen.NewYelp(77, 0),
	}
	for name, gen := range gens {
		fields := conformanceFields(name)
		partial, err := pjson.New().NewSession(fields)
		if err != nil {
			t.Fatal(err)
		}
		full, err := fulljson.New().NewSession(fields)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			rec := gen.Next()
			pp, err1 := partial.Parse(rec)
			// Copy: the session owns its Parsed.
			got := map[string]expr.Value{}
			for _, f := range pp.Fields {
				got[f.Path] = f.Value
			}
			fp, err2 := full.Parse(rec)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s record %d: parse errors %v / %v\n%s", name, i, err1, err2, rec)
			}
			for _, field := range fields {
				a, aok := got[field]
				b := fp.Lookup(field)
				bok := b.Kind != expr.KindMissing
				if aok != bok {
					t.Fatalf("%s record %d field %s: presence mismatch (partial %v, full %v)\n%s",
						name, i, field, aok, bok, rec)
				}
				if aok && !valuesEqual(a, b) {
					t.Fatalf("%s record %d field %s: %v != %v\n%s", name, i, field, a, b, rec)
				}
			}
		}
	}
}

// TestBorrowPairsMatchFullDOM: each character pjson searches for, followed
// by that character XOR 1 — the neighbour a borrow-propagating SWAR compare
// flags as a second match (a '#' after a quote became a quote and hid the
// rest of the record).
func TestBorrowPairsMatchFullDOM(t *testing.T) {
	records := []string{
		`{"a":"#tag","b":"ok"}`,
		`{"a": "#1 pizza", "b": 7}`,
		`{"a":"x\"#y","b":{"c":"ok"}}`,
		`{"a":"t:;t","b":{"c":1}}`,
		`{"a":"{z","b":{"c":"{z"}}`,
		`{"a":"[Z","b":["[Z"]}`,
		`{"a":"}|","b":{"c":"}|"}}`,
		`{"a":"]\\","b":[1,"]\\"]}`,
	}
	fields := []string{"a", "b", "b.c"}
	partial, err := pjson.New().NewSession(fields)
	if err != nil {
		t.Fatal(err)
	}
	full, err := fulljson.New().NewSession(fields)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		pp, err := partial.Parse([]byte(rec))
		if err != nil {
			t.Fatalf("%s: %v", rec, err)
		}
		got := map[string]expr.Value{}
		for _, f := range pp.Fields {
			got[f.Path] = f.Value
		}
		fp, err := full.Parse([]byte(rec))
		if err != nil {
			t.Fatalf("%s: %v", rec, err)
		}
		for _, field := range fields {
			a, ok := got[field]
			if !ok {
				a = expr.Missing()
			}
			if b := fp.Lookup(field); !valuesEqual(a, b) {
				t.Fatalf("%s field %s: partial %v, full %v", rec, field, a, b)
			}
		}
	}
}

// TestOffsetsAlwaysSliceRawValue: whenever pjson reports an offset, the
// payload slice must parse back to the same value (the property FishStore's
// zero-copy ModePayload key pointers depend on).
func TestOffsetsAlwaysSliceRawValue(t *testing.T) {
	gen := datagen.NewGithub(5, 800)
	fields := conformanceFields("github")
	sess, err := pjson.New().NewSession(fields)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		rec := gen.Next()
		p, err := sess.Parse(rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range p.Fields {
			if f.Offset < 0 {
				continue
			}
			raw := string(rec[f.Offset : f.Offset+f.Len])
			switch f.Value.Kind {
			case expr.KindString:
				if raw != f.Value.Str {
					t.Fatalf("field %s: raw %q != value %q", f.Path, raw, f.Value.Str)
				}
			case expr.KindBool:
				if (raw == "true") != f.Value.Bool {
					t.Fatalf("field %s: raw %q vs bool %v", f.Path, raw, f.Value.Bool)
				}
			}
		}
	}
}
