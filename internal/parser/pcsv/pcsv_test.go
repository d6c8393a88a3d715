package pcsv

import (
	"testing"

	"fishstore/internal/expr"
)

var header = []string{"review_id", "user_id", "business_id", "stars", "useful", "text"}

func TestExtractColumns(t *testing.T) {
	f := New(header)
	s, err := f.NewSession([]string{"review_id", "stars", "useful"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Parse([]byte("r001,u42,b7,4,11,great food\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Lookup("review_id").Str != "r001" {
		t.Fatalf("review_id = %v", p.Lookup("review_id"))
	}
	if p.Lookup("stars").Num != 4 || p.Lookup("useful").Num != 11 {
		t.Fatalf("stars/useful = %v / %v", p.Lookup("stars"), p.Lookup("useful"))
	}
}

func TestOffsets(t *testing.T) {
	f := New(header)
	s, err := f.NewSession([]string{"business_id"})
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte("r001,u42,b777,4,11,text")
	p, err := s.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	fd, ok := p.Get("business_id")
	if !ok {
		t.Fatal("missing column")
	}
	if string(raw[fd.Offset:fd.Offset+fd.Len]) != "b777" {
		t.Fatalf("offset slice = %q", raw[fd.Offset:fd.Offset+fd.Len])
	}
}

func TestQuotedFields(t *testing.T) {
	f := New([]string{"a", "b", "c"})
	s, err := f.NewSession([]string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Parse([]byte(`x,"has, comma",3`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Lookup("b").Str != "has, comma" {
		t.Fatalf("quoted field = %v", p.Lookup("b"))
	}
	if p.Lookup("c").Num != 3 {
		t.Fatalf("after quoted = %v", p.Lookup("c"))
	}
}

func TestStopsAtMaxColumn(t *testing.T) {
	// Only column 0 requested: trailing garbage shouldn't matter.
	f := New([]string{"a", "b"})
	s, err := f.NewSession([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Parse([]byte("hello,\"unterminated"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Lookup("a").Str != "hello" {
		t.Fatalf("a = %v", p.Lookup("a"))
	}
}

func TestShortRow(t *testing.T) {
	f := New([]string{"a", "b", "c"})
	s, err := f.NewSession([]string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Parse([]byte("only,two"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fields) != 0 {
		t.Fatal("short row should yield no field for missing column")
	}
}

func TestEmptyCellIsNull(t *testing.T) {
	f := New([]string{"a", "b"})
	s, err := f.NewSession([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Parse([]byte(",x"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Lookup("a").Kind != expr.KindNull {
		t.Fatalf("empty cell = %v", p.Lookup("a"))
	}
}

func TestBoolSniffing(t *testing.T) {
	f := New([]string{"flag"})
	s, err := f.NewSession([]string{"flag"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Parse([]byte("true"))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Lookup("flag").IsTrue() {
		t.Fatal("true not sniffed")
	}
}

func TestUnknownColumn(t *testing.T) {
	f := New([]string{"a"})
	if _, err := f.NewSession([]string{"zzz"}); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestTrailingNewlineVariants(t *testing.T) {
	f := New([]string{"a", "b"})
	s, err := f.NewSession([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{"x,y", "x,y\n", "x,y\r\n"} {
		p, err := s.Parse([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		if p.Lookup("b").Str != "y" {
			t.Fatalf("%q: b = %v", raw, p.Lookup("b"))
		}
	}
}

func BenchmarkParseCSV(b *testing.B) {
	f := New(header)
	s, err := f.NewSession([]string{"review_id", "stars", "useful"})
	if err != nil {
		b.Fatal(err)
	}
	raw := []byte("r00000001,u4242,b700,4,11,the quick brown fox jumped over the lazy dog and reviewed a restaurant")
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, err := s.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDoubledQuotes pins RFC 4180's "" escape: a quoted cell decodes each
// doubled quote to one, and only a decoded cell gives up its payload offset.
func TestDoubledQuotes(t *testing.T) {
	f := New([]string{"a", "b"})
	s, err := f.NewSession([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		row, a string
		offset int // of a's text in row; -1 when decoded
		b      expr.Value
	}{
		{`"say ""hi""",2`, `say "hi"`, -1, expr.NumberVal(2)},
		{`"plain",x`, "plain", 1, expr.StringVal("x")},
		{`"""",""""""`, `"`, -1, expr.StringVal(`""`)},
		{`"a""",b`, `a"`, -1, expr.StringVal("b")},
		{`"""a",b`, `"a`, -1, expr.StringVal("b")},
		{`"x,""y""",""`, `x,"y"`, -1, expr.Null()},
		{`"1""2",""""`, `1"2`, -1, expr.StringVal(`"`)},
	} {
		p, err := s.Parse([]byte(c.row))
		if err != nil {
			t.Fatalf("%s: %v", c.row, err)
		}
		fa, ok := p.Get("a")
		if !ok || fa.Value != expr.StringVal(c.a) {
			t.Errorf("%s: a = %v, want %q", c.row, fa.Value, c.a)
		}
		if fa.Offset != c.offset || c.offset >= 0 && c.row[fa.Offset:fa.Offset+fa.Len] != c.a {
			t.Errorf("%s: a at [%d,+%d), want offset %d", c.row, fa.Offset, fa.Len, c.offset)
		}
		if got := p.Lookup("b"); got != c.b {
			t.Errorf("%s: b = %v, want %v", c.row, got, c.b)
		}
	}
}
