package datagen

import (
	"bytes"
	"encoding/json"
	"testing"

	"fishstore/internal/expr"
	"fishstore/internal/parser/pcsv"
	"fishstore/internal/parser/pjson"
)

func TestAllJSONGeneratorsProduceValidJSON(t *testing.T) {
	gens := []Generator{
		NewGithub(1, 0), NewTwitter(1, 0), NewTwitterSimple(1), NewYelp(1, 0),
	}
	for _, g := range gens {
		for i := 0; i < 200; i++ {
			rec := g.Next()
			var v map[string]any
			if err := json.Unmarshal(rec, &v); err != nil {
				t.Fatalf("%s record %d invalid JSON: %v\n%s", g.Name(), i, err, rec)
			}
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, b := NewGithub(42, 0), NewGithub(42, 0)
	for i := 0; i < 50; i++ {
		if !bytes.Equal(a.Next(), b.Next()) {
			t.Fatal("same seed produced different records")
		}
	}
	c := NewGithub(43, 0)
	if bytes.Equal(NewGithub(42, 0).Next(), c.Next()) {
		t.Fatal("different seeds produced identical records")
	}
}

func TestGithubRecordSizes(t *testing.T) {
	g := NewGithub(7, 3072)
	total := 0
	const n = 300
	for i := 0; i < n; i++ {
		total += len(g.Next())
	}
	avg := total / n
	if avg < 2500 || avg > 4000 {
		t.Fatalf("github avg record size %d, want ~3KB", avg)
	}
	y := NewYelp(7, 0)
	total = 0
	for i := 0; i < n; i++ {
		total += len(y.Next())
	}
	if avg := total / n; avg >= 1024 {
		t.Fatalf("yelp avg record size %d, want <1KB", avg)
	}
}

func selectivity(t *testing.T, g Generator, pred string, n int) float64 {
	t.Helper()
	e := expr.MustParse(pred)
	sess, err := pjson.New().NewSession(e.Fields())
	if err != nil {
		t.Fatal(err)
	}
	match := 0
	for i := 0; i < n; i++ {
		p, err := sess.Parse(g.Next())
		if err != nil {
			t.Fatal(err)
		}
		if e.EvalBool(p) {
			match++
		}
	}
	return float64(match) / float64(n)
}

func TestGithubSelectivities(t *testing.T) {
	const n = 4000
	if s := selectivity(t, NewGithub(11, 512), `type == "PushEvent"`, n); s < 0.4 || s > 0.6 {
		t.Fatalf("PushEvent selectivity %.3f, want ~0.5", s)
	}
	if s := selectivity(t, NewGithub(12, 512), `type == "IssuesEvent" && payload.action == "opened"`, n); s < 0.02 || s > 0.08 {
		t.Fatalf("opened-issues selectivity %.3f, want ~0.04", s)
	}
	if s := selectivity(t, NewGithub(13, 512), `type == "PullRequestEvent" && payload.pull_request.head.repo.language == "C++"`, n); s < 0.003 || s > 0.03 {
		t.Fatalf("C++ PR selectivity %.3f, want ~0.01", s)
	}
}

func TestTwitterSelectivities(t *testing.T) {
	const n = 6000
	if s := selectivity(t, NewTwitter(21, 600), `user.lang == "ja" && user.followers_count > 3000`, n); s < 0.003 || s > 0.03 {
		t.Fatalf("ja+followers selectivity %.4f, want ~0.01", s)
	}
	if s := selectivity(t, NewTwitterSimple(22), `lang == "en"`, n); s < 0.5 || s > 0.7 {
		t.Fatalf("en selectivity %.3f, want ~0.6", s)
	}
}

func TestYelpSelectivities(t *testing.T) {
	const n = 8000
	if s := selectivity(t, NewYelp(31, 0), `stars > 3 && useful > 5`, n); s < 0.005 || s > 0.05 {
		t.Fatalf("stars/useful selectivity %.4f, want ~0.02", s)
	}
	if s := selectivity(t, NewYelp(32, 0), `useful > 10`, n); s < 0.002 || s > 0.03 {
		t.Fatalf("useful>10 selectivity %.4f, want ~0.01", s)
	}
}

func TestYelpCSVParsable(t *testing.T) {
	g := NewYelpCSV(5, 300)
	f := pcsv.New(YelpCSVHeader)
	sess, err := f.NewSession([]string{"review_id", "stars", "useful"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p, err := sess.Parse(g.Next())
		if err != nil {
			t.Fatal(err)
		}
		if p.Lookup("stars").Kind != expr.KindNumber {
			t.Fatalf("stars = %v", p.Lookup("stars"))
		}
		if p.Lookup("review_id").Kind != expr.KindString {
			t.Fatalf("review_id = %v", p.Lookup("review_id"))
		}
	}
}

func TestBatchHelpers(t *testing.T) {
	g := NewYelp(1, 0)
	b := Batch(g, 10)
	if len(b) != 10 {
		t.Fatalf("Batch len %d", len(b))
	}
	bb := BatchBytes(NewYelp(2, 0), 10_000)
	total := 0
	for _, r := range bb {
		total += len(r)
	}
	if total < 10_000 {
		t.Fatalf("BatchBytes total %d", total)
	}
}
