package pjson

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fishstore/internal/datagen"
	"fishstore/internal/expr"
	"fishstore/internal/parser"
)

func mustSession(t *testing.T, fields ...string) parser.Session {
	t.Helper()
	s, err := New().NewSession(fields)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const githubRecord = `{"id": 15646156, "type": "PullRequestEvent", "actor": {"id": 234, "name": "das"}, "repo": {"id": 666, "name": "spark"}, "payload": {"action": "opened", "pull_request": {"head": {"repo": {"language": "C++"}}}}, "public": true}`

func TestExtractTopLevel(t *testing.T) {
	s := mustSession(t, "id", "type", "public")
	p, err := s.Parse([]byte(githubRecord))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Lookup("id"); v.Kind != expr.KindNumber || v.Num != 15646156 {
		t.Fatalf("id = %v", v)
	}
	if v := p.Lookup("type"); v.Str != "PullRequestEvent" {
		t.Fatalf("type = %v", v)
	}
	if v := p.Lookup("public"); !v.IsTrue() {
		t.Fatalf("public = %v", v)
	}
}

func TestExtractNested(t *testing.T) {
	s := mustSession(t, "repo.name", "actor.id", "payload.pull_request.head.repo.language")
	p, err := s.Parse([]byte(githubRecord))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Lookup("repo.name"); v.Str != "spark" {
		t.Fatalf("repo.name = %v", v)
	}
	if v := p.Lookup("actor.id"); v.Num != 234 {
		t.Fatalf("actor.id = %v", v)
	}
	if v := p.Lookup("payload.pull_request.head.repo.language"); v.Str != "C++" {
		t.Fatalf("language = %v", v)
	}
}

func TestOffsetsPointAtRawValue(t *testing.T) {
	s := mustSession(t, "repo.name", "id")
	raw := []byte(githubRecord)
	p, err := s.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := p.Get("repo.name")
	if !ok || f.Offset < 0 {
		t.Fatalf("repo.name field = %+v", f)
	}
	if got := string(raw[f.Offset : f.Offset+f.Len]); got != "spark" {
		t.Fatalf("offset slice = %q", got)
	}
	fid, _ := p.Get("id")
	if got := string(raw[fid.Offset : fid.Offset+fid.Len]); got != "15646156" {
		t.Fatalf("id offset slice = %q", got)
	}
}

func TestMissingFieldAbsent(t *testing.T) {
	s := mustSession(t, "nope", "repo.nothing")
	p, err := s.Parse([]byte(githubRecord))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fields) != 0 {
		t.Fatalf("fields = %+v", p.Fields)
	}
	if v := p.Lookup("nope"); v.Kind != expr.KindMissing {
		t.Fatalf("missing lookup = %v", v)
	}
}

func TestArraysDoNotConfuseLevels(t *testing.T) {
	rec := `{"a": [{"b": 1}, {"b": 2}], "c": {"b": 3}, "b": 4}`
	s := mustSession(t, "b", "c.b")
	p, err := s.Parse([]byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Lookup("b"); v.Num != 4 {
		t.Fatalf("top-level b = %v (array leak?)", v)
	}
	if v := p.Lookup("c.b"); v.Num != 3 {
		t.Fatalf("c.b = %v", v)
	}
}

func TestStringEscapes(t *testing.T) {
	rec := `{"name": "line\nbreak \"quoted\" tab\t", "plain": "x"}`
	s := mustSession(t, "name", "plain")
	p, err := s.Parse([]byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Lookup("name"); v.Str != "line\nbreak \"quoted\" tab\t" {
		t.Fatalf("unescaped = %q", v.Str)
	}
	f, _ := p.Get("name")
	if f.Offset != -1 {
		t.Fatal("escaped string must not claim a raw offset")
	}
	fp, _ := p.Get("plain")
	if fp.Offset == -1 {
		t.Fatal("plain string should have a raw offset")
	}
}

func TestStructuralCharsInsideStrings(t *testing.T) {
	rec := `{"tricky": "{\"a\": [1,2]} :: }{", "x": 42}`
	s := mustSession(t, "x", "tricky")
	p, err := s.Parse([]byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Lookup("x"); v.Num != 42 {
		t.Fatalf("x = %v", v)
	}
	if v := p.Lookup("tricky"); v.Str != `{"a": [1,2]} :: }{` {
		t.Fatalf("tricky = %q", v.Str)
	}
}

func TestNumbersAndLiterals(t *testing.T) {
	rec := `{"neg": -12.5, "exp": 1.5e3, "t": true, "f": false, "n": null, "zero": 0}`
	s := mustSession(t, "neg", "exp", "t", "f", "n", "zero")
	p, err := s.Parse([]byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	if p.Lookup("neg").Num != -12.5 || p.Lookup("exp").Num != 1500 || p.Lookup("zero").Num != 0 {
		t.Fatalf("numbers wrong: %v %v %v", p.Lookup("neg"), p.Lookup("exp"), p.Lookup("zero"))
	}
	if !p.Lookup("t").IsTrue() || p.Lookup("f").IsTrue() {
		t.Fatal("bools wrong")
	}
	if p.Lookup("n").Kind != expr.KindNull {
		t.Fatal("null wrong")
	}
}

func TestCompositeValueAsField(t *testing.T) {
	rec := `{"obj": {"k": [1, {"d": 2}]}, "after": 9}`
	s := mustSession(t, "obj", "after")
	p, err := s.Parse([]byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Lookup("obj"); v.Str != `{"k": [1, {"d": 2}]}` {
		t.Fatalf("obj = %q", v.Str)
	}
	if v := p.Lookup("after"); v.Num != 9 {
		t.Fatalf("after = %v", v)
	}
}

func TestInternalAndLeafSamePath(t *testing.T) {
	rec := `{"a": {"b": 1}}`
	s := mustSession(t, "a", "a.b")
	p, err := s.Parse([]byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Lookup("a"); v.Str != `{"b": 1}` {
		t.Fatalf("a = %v", v)
	}
	if v := p.Lookup("a.b"); v.Num != 1 {
		t.Fatalf("a.b = %v", v)
	}
}

func TestWhitespaceTolerance(t *testing.T) {
	rec := "{\n  \"a\"  :  \t1 ,\r\n  \"b\": {  \"c\" :\"x\" }\n}"
	s := mustSession(t, "a", "b.c")
	p, err := s.Parse([]byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	if p.Lookup("a").Num != 1 || p.Lookup("b.c").Str != "x" {
		t.Fatalf("whitespace parse: %v %v", p.Lookup("a"), p.Lookup("b.c"))
	}
}

func TestEmptyFieldSet(t *testing.T) {
	s := mustSession(t)
	p, err := s.Parse([]byte(githubRecord))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fields) != 0 {
		t.Fatal("no fields requested, none should be returned")
	}
}

func TestSessionReuseAcrossRecords(t *testing.T) {
	s := mustSession(t, "v")
	for i := 0; i < 100; i++ {
		rec := fmt.Sprintf(`{"pad": %q, "v": %d}`, string(make([]byte, i*3)), i)
		p, err := s.Parse([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		if p.Lookup("v").Num != float64(i) {
			t.Fatalf("iteration %d: v = %v", i, p.Lookup("v"))
		}
	}
}

// TestAgainstEncodingJSON cross-validates extraction against the stdlib DOM
// parser on generated documents.
func TestAgainstEncodingJSON(t *testing.T) {
	f := func(a int, b string, c bool, d float64) bool {
		doc := map[string]any{
			"a": a, "s": b, "flag": c,
			"nested": map[string]any{"x": d, "y": b},
			"extra":  []any{1.0, "two", map[string]any{"deep": b}},
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			return false
		}
		s := mustSession(t, "a", "s", "flag", "nested.x", "nested.y")
		p, err := s.Parse(raw)
		if err != nil {
			return false
		}
		return p.Lookup("a").Num == float64(a) &&
			p.Lookup("s").Str == b &&
			p.Lookup("flag").Bool == c &&
			p.Lookup("nested.x").Num == d &&
			p.Lookup("nested.y").Str == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestByteCompareExhaustive checks the word classifier against a scalar
// oracle: every byte value at every lane, next to every neighbour value.
// The borrow-based zero-byte test it replaced flagged the byte after a
// match whenever that byte was the match XOR 1.
func TestByteCompareExhaustive(t *testing.T) {
	for v := 0; v < 256; v++ {
		for lane := 0; lane < 8; lane++ {
			for n := 0; n < 256; n++ {
				var b [8]byte
				for i := range b {
					b[i] = byte(n)
				}
				b[lane] = byte(v)
				var wq, wb, ws uint64
				for i, c := range b {
					if c == '"' {
						wq |= 1 << i
					}
					if c == '\\' {
						wb |= 1 << i
					}
					if c == ':' || c == '{' || c == '}' || c == '[' || c == ']' {
						ws |= 1 << i
					}
				}
				q, bs, st := classify(binary.LittleEndian.Uint64(b[:]))
				if q != wq || bs != wb || st != ws {
					t.Fatalf("% x: classify = %08b %08b %08b, want %08b %08b %08b", b, q, bs, st, wq, wb, ws)
				}
			}
		}
	}
}

// borrowPairs holds, for each searched character c, a record where c is
// followed by c^1 — the neighbour the borrow-based compare mistook for a
// second match. A false quote hides the fields after it; a false colon or
// bracket shows in the index, which checkIndex compares bit for bit.
var borrowPairs = []struct {
	rec  string
	want map[string]expr.Value
}{
	{`{"a":"#tag","b":"ok"}`, map[string]expr.Value{"a": expr.StringVal("#tag"), "b": expr.StringVal("ok")}},
	{`{"a": "#1 pizza", "b": 7}`, map[string]expr.Value{"a": expr.StringVal("#1 pizza"), "b": expr.NumberVal(7)}},
	{`{"a":"x\"#y","b":{"c":"ok"}}`, map[string]expr.Value{"a": expr.StringVal(`x"#y`), "b.c": expr.StringVal("ok")}},
	{`{"a":"t:;t","b":{"c":1}}`, map[string]expr.Value{"a": expr.StringVal("t:;t"), "b.c": expr.NumberVal(1)}},
	{`{"a":"{z","b":{"c":"{z"}}`, map[string]expr.Value{"a": expr.StringVal("{z"), "b.c": expr.StringVal("{z")}},
	{`{"a":"[Z","b":["[Z"]}`, map[string]expr.Value{"a": expr.StringVal("[Z"), "b": expr.StringVal(`["[Z"]`)}},
	{`{"a":"}|","b":{"c":"}|"}}`, map[string]expr.Value{"a": expr.StringVal("}|"), "b.c": expr.StringVal("}|")}},
	{`{"a":"]\\","b":[1,"]\\"]}`, map[string]expr.Value{"a": expr.StringVal(`]\`), "b": expr.StringVal(`[1,"]\\"]`)}},
}

func TestBorrowPairsRegression(t *testing.T) {
	for _, tc := range borrowPairs {
		for pad := 0; pad < 8; pad++ { // every lane of the first word
			rec := "{" + strings.Repeat(" ", pad) + tc.rec[1:]
			sess := mustSession(t, "a", "b", "b.c").(*session)
			for pass := 0; pass < 2; pass++ { // learn, then speculate
				p, err := sess.Parse([]byte(rec))
				if err != nil {
					t.Fatalf("%s: %v", rec, err)
				}
				for path, want := range tc.want {
					if got := p.Lookup(path); got != want {
						t.Fatalf("%s pass %d: %s = %#v, want %#v", rec, pass, path, got, want)
					}
				}
			}
			checkIndex(t, sess, []byte(rec))
		}
	}
}

// checkIndex indexes all of payload and compares the structural words and
// the leveled colons with a byte-at-a-time oracle.
func checkIndex(t *testing.T, sess *session, payload []byte) {
	t.Helper()
	sess.Parse(payload)
	for sess.more(len(payload)) {
	}
	var want []uint64
	colons := make([][]int32, sess.maxDepth)
	inString, depth := false, 0
	for i, c := range payload {
		if i%64 == 0 {
			want = append(want, 0)
		}
		if c == '"' && !sess.isEscaped(i) {
			inString = !inString
			continue
		}
		if inString || !strings.ContainsRune(":{}[]", rune(c)) {
			continue
		}
		want[i/64] |= 1 << (i % 64)
		switch c {
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case ':':
			if depth >= 1 && depth <= sess.maxDepth {
				colons[depth-1] = append(colons[depth-1], int32(i))
			}
		}
	}
	if !slices.Equal(sess.structBits, want) {
		t.Fatalf("%q: structural words %x, want %x", payload, sess.structBits, want)
	}
	for l := range colons {
		if !slices.Equal(sess.colons[l], colons[l]) {
			t.Fatalf("%q: level %d colons %v, want %v", payload, l+1, sess.colons[l], colons[l])
		}
	}
}

func TestIndexMatchesOracle(t *testing.T) {
	gens := []datagen.Generator{datagen.NewYelp(3, 0), datagen.NewGithub(3, 1024), datagen.NewTwitter(3, 1024)}
	for _, g := range gens {
		sess := mustSession(t, "a", "b.c", "d.e.f.g.h.i").(*session)
		for i := 0; i < 50; i++ {
			checkIndex(t, sess, g.Next())
		}
	}
	sess := mustSession(t, "a", "b.c").(*session)
	for _, rec := range []string{githubRecord, `{"x": "a\\\"b{", "y": ["\\", {"z": ":"}]}`, `"open`} {
		checkIndex(t, sess, []byte(rec))
	}
}

// TestParseStopsAfterLastSpeculatedField: once the schema is learned, a
// record is indexed only one colon past its last field of interest.
func TestParseStopsAfterLastSpeculatedField(t *testing.T) {
	sess := mustSession(t, "stars", "cool").(*session)
	gen := datagen.NewYelp(1, 700)
	for i := 0; i < 3; i++ {
		rec := gen.Next()
		if _, err := sess.Parse(rec); err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(sess.structBits)*64 >= len(rec)/2 {
			t.Fatalf("indexed %d of %d bytes under speculation", len(sess.structBits)*64, len(rec))
		}
	}
}

// TestParseAllocs pins the allocation budget once speculation has been
// learned: numbers and literals cost nothing, each unescaped string field
// one copy.
func TestParseAllocs(t *testing.T) {
	for _, tc := range []struct {
		fields []string
		max    float64
	}{
		{yelpReevalFields, 0},
		{yelpIngestFields, 3}, // review_id, user_id, business_id
	} {
		sess := mustSession(t, tc.fields...)
		rec := datagen.NewYelp(1, 700).Next()
		for i := 0; i < 2; i++ {
			if _, err := sess.Parse(rec); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(100, func() { sess.Parse(rec) }); got > tc.max {
			t.Errorf("%v: %v allocs/record, want <= %v", tc.fields, got, tc.max)
		}
	}
}

var (
	yelpReevalFields   = []string{"stars", "cool"}
	yelpIngestFields   = []string{"review_id", "user_id", "business_id", "stars", "useful"}
	githubIngestFields = []string{"id", "actor.id", "repo.id", "type", "payload.action",
		"payload.pull_request.head.repo.language"}
)

// benchDatagen parses 4K generated records round-robin.
func benchDatagen(b *testing.B, gen datagen.Generator, fields []string) {
	recs := make([][]byte, 4096)
	var total int
	for i := range recs {
		recs[i] = gen.Next()
		total += len(recs[i])
	}
	s, err := New().NewSession(fields)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(total / len(recs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Parse(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseYelpReeval(b *testing.B) {
	benchDatagen(b, datagen.NewYelp(1, 700), yelpReevalFields)
}

func BenchmarkParseYelpIngest(b *testing.B) {
	benchDatagen(b, datagen.NewYelp(1, 700), yelpIngestFields)
}

func BenchmarkParseGithubIngest(b *testing.B) {
	benchDatagen(b, datagen.NewGithub(1, 3072), githubIngestFields)
}

func BenchmarkParsePartial(b *testing.B) {
	s, err := New().NewSession([]string{"id", "type", "repo.name"})
	if err != nil {
		b.Fatal(err)
	}
	raw := []byte(githubRecord)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSpeculationHitsOnStableSchema(t *testing.T) {
	sess := mustSession(t, "id", "repo.name", "type").(*session)
	for i := 0; i < 50; i++ {
		rec := fmt.Sprintf(`{"id": %d, "type": "PushEvent", "repo": {"id": 9, "name": "spark"}}`, i)
		p, err := sess.Parse([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		if p.Lookup("id").Num != float64(i) || p.Lookup("repo.name").Str != "spark" {
			t.Fatalf("record %d misparsed under speculation", i)
		}
	}
	hits, misses := sess.SpecStats()
	if hits == 0 {
		t.Fatalf("speculation never hit (hits=%d misses=%d)", hits, misses)
	}
	if misses > 4 { // first record learns; maybe one per node
		t.Fatalf("too many misses on a stable schema: %d", misses)
	}
}

func TestSpeculationFallsBackOnSchemaChange(t *testing.T) {
	sess := mustSession(t, "a", "b").(*session)
	recs := []string{
		`{"a": 1, "b": 2}`,
		`{"a": 3, "b": 4}`,
		`{"b": 6, "a": 5}`, // reordered: speculation must miss, then relearn
		`{"b": 8, "a": 7}`,
		`{"x": 0, "a": 9, "b": 10}`, // extra field shifts ordinals
	}
	want := [][2]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}}
	for i, rec := range recs {
		p, err := sess.Parse([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		if p.Lookup("a").Num != want[i][0] || p.Lookup("b").Num != want[i][1] {
			t.Fatalf("record %d: a=%v b=%v, want %v", i, p.Lookup("a"), p.Lookup("b"), want[i])
		}
	}
	_, misses := sess.SpecStats()
	if misses == 0 {
		t.Fatal("schema changes should cause speculation misses")
	}
}

func TestSpeculationDisabledFactory(t *testing.T) {
	sp, err := NewWithoutSpeculation().NewSession([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	sess := sp.(*session)
	for i := 0; i < 10; i++ {
		if _, err := sess.Parse([]byte(`{"a": 1}`)); err != nil {
			t.Fatal(err)
		}
	}
	hits, _ := sess.SpecStats()
	if hits != 0 {
		t.Fatal("speculation ran despite being disabled")
	}
}

func TestSpeculationMissingFieldRecords(t *testing.T) {
	// Records alternate between having and missing a requested field; the
	// parser must stay correct (speculation disabled for that node).
	sess := mustSession(t, "a", "b").(*session)
	for i := 0; i < 20; i++ {
		rec := `{"a": 1, "b": 2}`
		wantB := true
		if i%2 == 1 {
			rec = `{"a": 1}`
			wantB = false
		}
		p, err := sess.Parse([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		if (p.Lookup("b").Kind != expr.KindMissing) != wantB {
			t.Fatalf("record %d: b presence wrong", i)
		}
	}
}

func BenchmarkParseSpeculationOn(b *testing.B) {
	s, err := New().NewSession([]string{"id", "type", "repo.name"})
	if err != nil {
		b.Fatal(err)
	}
	raw := []byte(githubRecord)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseSpeculationOff(b *testing.B) {
	s, err := NewWithoutSpeculation().NewSession([]string{"id", "type", "repo.name"})
	if err != nil {
		b.Fatal(err)
	}
	raw := []byte(githubRecord)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}
