package psf

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"fishstore/internal/epoch"
	"fishstore/internal/expr"
	"fishstore/internal/parser"
)

func parsedWith(fields map[string]expr.Value) *parser.Parsed {
	p := &parser.Parsed{}
	p.Reset()
	for k, v := range fields {
		p.Add(parser.Field{Path: k, Value: v, Offset: -1})
	}
	return p
}

func TestProjectionEvaluate(t *testing.T) {
	d := Projection("repo.name")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	p := parsedWith(map[string]expr.Value{"repo.name": expr.StringVal("spark")})
	if v := d.Evaluate(p); v.Str != "spark" {
		t.Fatalf("projection = %v", v)
	}
	// Missing and null both mean "not indexed".
	if v := d.Evaluate(parsedWith(nil)); v.Kind != expr.KindMissing {
		t.Fatalf("missing = %v", v)
	}
	if v := d.Evaluate(parsedWith(map[string]expr.Value{"repo.name": expr.Null()})); v.Kind != expr.KindMissing {
		t.Fatalf("null = %v", v)
	}
}

func TestPredicateEvaluate(t *testing.T) {
	d := MustPredicate("spark-prs", `repo.name == "spark" && type == "PullRequestEvent"`)
	if got := d.Fields; len(got) != 2 {
		t.Fatalf("fields = %v", got)
	}
	match := parsedWith(map[string]expr.Value{
		"repo.name": expr.StringVal("spark"), "type": expr.StringVal("PullRequestEvent"),
	})
	if v := d.Evaluate(match); !v.IsTrue() {
		t.Fatalf("matching record = %v", v)
	}
	noMatch := parsedWith(map[string]expr.Value{
		"repo.name": expr.StringVal("flink"), "type": expr.StringVal("PullRequestEvent"),
	})
	if v := d.Evaluate(noMatch); v.Kind != expr.KindMissing {
		t.Fatalf("non-matching record should be unindexed, got %v", v)
	}
}

func TestPredicateIndexFalse(t *testing.T) {
	d := MustPredicate("p", `x > 5`)
	d.IndexFalse = true
	p := parsedWith(map[string]expr.Value{"x": expr.NumberVal(1)})
	if v := d.Evaluate(p); !(v.Kind == expr.KindBool && !v.Bool) {
		t.Fatalf("IndexFalse eval = %v", v)
	}
}

func TestRangeBucketEvaluate(t *testing.T) {
	d := RangeBucket("cpu", 25)
	cases := map[float64]float64{0: 0, 9.45: 0, 25: 25, 93.45: 75, 100: 100, -3: -25}
	for in, want := range cases {
		p := parsedWith(map[string]expr.Value{"cpu": expr.NumberVal(in)})
		if v := d.Evaluate(p); v.Num != want {
			t.Errorf("bucket(%v) = %v, want %v", in, v.Num, want)
		}
	}
	// Non-numeric is unindexed.
	p := parsedWith(map[string]expr.Value{"cpu": expr.StringVal("high")})
	if v := d.Evaluate(p); v.Kind != expr.KindMissing {
		t.Fatalf("non-numeric bucket = %v", v)
	}
}

func TestCustomEvaluate(t *testing.T) {
	d := Custom("concat", []string{"a", "b"}, func(p *parser.Parsed) expr.Value {
		a, b := p.Lookup("a"), p.Lookup("b")
		if a.Kind != expr.KindString || b.Kind != expr.KindString {
			return expr.Missing()
		}
		return expr.StringVal(a.Str + "/" + b.Str)
	})
	p := parsedWith(map[string]expr.Value{"a": expr.StringVal("x"), "b": expr.StringVal("y")})
	if v := d.Evaluate(p); v.Str != "x/y" {
		t.Fatalf("custom = %v", v)
	}
}

func TestValidateRejectsBadDefs(t *testing.T) {
	bad := []Definition{
		{Kind: KindProjection, Name: "p"},                         // no field
		{Kind: KindPredicate, Name: "q"},                          // no expr
		{Kind: KindRangeBucket, Name: "r", Fields: []string{"x"}}, // no width
		{Kind: KindCustom, Name: "c", Fields: []string{"x"}},      // no fn
		{Kind: KindProjection, Fields: []string{"x"}},             // no name
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestCanonicalValue(t *testing.T) {
	if string(CanonicalValue(expr.BoolVal(true))) != "t" {
		t.Fatal("bool true")
	}
	if string(CanonicalValue(expr.NumberVal(3000))) != "3000" {
		t.Fatalf("number 3000 = %q", CanonicalValue(expr.NumberVal(3000)))
	}
	if string(CanonicalValue(expr.StringVal("spark"))) != "spark" {
		t.Fatal("string")
	}
	// Same value, different textual origin, same canonical bytes.
	if string(CanonicalValue(expr.NumberVal(3e3))) != "3000" {
		t.Fatal("3e3 should canonicalize to 3000")
	}
}

// TestAppendCanonicalMatchesAppendFloat checks the small-integer fast path
// byte for byte against the shortest 'g' formatting it replaces: every
// integer in [-1e6, 1e6] (both ends print in exponent form), -0, and random
// floats of every magnitude.
func TestAppendCanonicalMatchesAppendFloat(t *testing.T) {
	var got, want []byte
	check := func(f float64) {
		got = AppendCanonical(got[:0], expr.NumberVal(f))
		want = strconv.AppendFloat(want[:0], f, 'g', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendCanonical(%v) = %q, want %q", f, got, want)
		}
	}
	for n := -1_000_000; n <= 1_000_000; n++ {
		check(float64(n))
	}
	check(math.Copysign(0, -1))
	check(math.Inf(1))
	check(math.Inf(-1))
	check(math.NaN())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		switch i % 3 {
		case 0:
			check(math.Float64frombits(rng.Uint64()))
		case 1:
			check((rng.Float64() - 0.5) * 4e6)
		default:
			check(math.Round((rng.Float64()-0.5)*4e6) / 4)
		}
	}
}

// TestAppendCanonicalAgreesWithCanonicalValue checks that the appending and
// the allocating forms render every kind alike, after existing bytes.
func TestAppendCanonicalAgreesWithCanonicalValue(t *testing.T) {
	for _, v := range []expr.Value{
		expr.BoolVal(true), expr.BoolVal(false), expr.NumberVal(3000),
		expr.NumberVal(-2.5), expr.NumberVal(1e6), expr.StringVal(""),
		expr.StringVal("spark"), expr.Null(), expr.Missing(),
	} {
		got := AppendCanonical([]byte("prefix"), v)
		if want := "prefix" + string(CanonicalValue(v)); string(got) != want {
			t.Errorf("AppendCanonical(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestShardHashPinned pins ShardHash to the values it has always returned:
// the hashes of sharded chains are persisted in checkpoints and recomputed
// by recovery replay, so they must never change.
func TestShardHashPinned(t *testing.T) {
	for _, c := range []struct {
		id            ID
		canonical     string
		shard, shards int
		want          uint64
	}{
		{0, "", 0, 2, 0x3784fee16e4cf4cd},
		{3, "spark", 1, 4, 0xa36028a7c6405624},
		{7, "t", 63, 64, 0xd2f47f5bba4a788f},
		{65535, "1234567", 2, 3, 0x79cee6d0b5afb3f8},
		{12, "a much longer canonical value that passes sixty-four bytes in length, surely", 5, 8, 0xc12bc073df222dd},
		{9, "x", 0, 1, 0x7cec38657217e0e5},
	} {
		if got := ShardHash(c.id, []byte(c.canonical), c.shard, c.shards); got != c.want {
			t.Errorf("ShardHash(%d, %q, %d, %d) = %#x, want %#x", c.id, c.canonical, c.shard, c.shards, got, c.want)
		}
	}
	canonical := []byte("spark")
	if n := testing.AllocsPerRun(100, func() { _ = ShardHash(3, canonical, 1, 4) }); n != 0 {
		t.Errorf("ShardHash allocates %v per call, want 0", n)
	}
}

func TestPropertyHashDistinguishes(t *testing.T) {
	if PropertyHash(1, expr.StringVal("x")) == PropertyHash(2, expr.StringVal("x")) {
		t.Fatal("ids must matter")
	}
	if PropertyHash(1, expr.StringVal("x")) == PropertyHash(1, expr.StringVal("y")) {
		t.Fatal("values must matter")
	}
	if PropertyHash(1, expr.NumberVal(3e3)) != PropertyHash(1, expr.NumberVal(3000)) {
		t.Fatal("canonically equal numbers must hash equal")
	}
}

func newRegistry(tail *atomic.Uint64) (*Registry, *epoch.Manager) {
	em := epoch.New()
	return NewRegistry(em, tail.Load), em
}

func TestRegisterAssignsSequentialIDs(t *testing.T) {
	var tail atomic.Uint64
	r, _ := newRegistry(&tail)
	id1, _, err := r.Register(Projection("a"))
	if err != nil {
		t.Fatal(err)
	}
	id2, _, err := r.Register(Projection("b"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("duplicate ids")
	}
	meta := r.CurrentMeta()
	if len(meta.PSFs) != 2 {
		t.Fatalf("meta has %d PSFs", len(meta.PSFs))
	}
	if len(meta.Fields) != 2 {
		t.Fatalf("meta fields = %v", meta.Fields)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	var tail atomic.Uint64
	r, _ := newRegistry(&tail)
	if _, _, err := r.Register(Projection("a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Register(Projection("a")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if r.State() != StateRest {
		t.Fatalf("state after failed apply = %v", r.State())
	}
}

func TestSafeBoundaries(t *testing.T) {
	var tail atomic.Uint64
	tail.Store(1000)
	r, _ := newRegistry(&tail)
	id, res, err := r.Register(Projection("a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.SafeRegisterBoundary != 1000 {
		t.Fatalf("register boundary = %d", res.SafeRegisterBoundary)
	}
	ivs := r.Intervals(id)
	if len(ivs) != 1 || ivs[0].From != 1000 || !ivs[0].Open() {
		t.Fatalf("intervals = %+v", ivs)
	}

	tail.Store(5000)
	res2, err := r.Deregister(id)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SafeDeregisterBoundary != 5000 {
		t.Fatalf("deregister boundary = %d", res2.SafeDeregisterBoundary)
	}
	ivs = r.Intervals(id)
	if len(ivs) != 1 || ivs[0].From != 1000 || ivs[0].To != 5000 {
		t.Fatalf("closed intervals = %+v", ivs)
	}
	// Definition survives deregistration for historical scans.
	if _, ok := r.Lookup(id); !ok {
		t.Fatal("definition lost after deregistration")
	}
	if len(r.CurrentMeta().PSFs) != 0 {
		t.Fatal("meta still has the PSF")
	}
}

// TestSafeDeregisterBoundaryReadBeforeSwap: the deregister boundary is a
// tail read while workers still see the old meta. A worker that picks up the
// new meta stops indexing the PSF, so any tail read after the swap may cover
// records it allocated without the PSF's pointer.
func TestSafeDeregisterBoundaryReadBeforeSwap(t *testing.T) {
	var r *Registry
	var tail, beforeSwap atomic.Uint64
	r = NewRegistry(epoch.New(), func() uint64 {
		at := tail.Add(100) // the log grows between any two reads
		if len(r.CurrentMeta().PSFs) == 1 {
			beforeSwap.Store(at)
		}
		return at
	})
	id, _, err := r.Register(Projection("a"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Deregister(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.SafeDeregisterBoundary > beforeSwap.Load() {
		t.Fatalf("deregister boundary %d is past the last tail read before the meta swap, %d",
			res.SafeDeregisterBoundary, beforeSwap.Load())
	}
}

func TestWorkersObserveMetaAfterRefresh(t *testing.T) {
	var tail atomic.Uint64
	r, em := newRegistry(&tail)
	g := em.Acquire() // simulated ingestion worker, currently protected

	applied := make(chan Result)
	go func() {
		res, err := r.Apply([]Change{{Register: &Definition{
			Name: "p", Kind: KindProjection, Fields: []string{"x"},
		}}})
		if err != nil {
			t.Error(err)
		}
		applied <- res
	}()

	// The worker must observe the new meta immediately after the current
	// pointer swap, even before refreshing.
	for len(r.CurrentMeta().PSFs) == 0 {
		// Yield: Apply may be spinning in epoch.WaitForSafe on the only
		// other core, and two busy loops can starve each other.
		runtime.Gosched()
	}
	// Refreshing before Apply's BumpWith would leave the guard at the
	// pre-bump epoch, and Apply would wait on it forever: wait for the bump.
	for em.DrainPending() == 0 {
		runtime.Gosched()
	}
	// Apply blocks until the worker refreshes.
	select {
	case <-applied:
		t.Fatal("Apply returned while a worker was still unrefreshed")
	default:
	}
	g.Refresh()
	//lint:ignore epochguard Refresh above already unblocked Apply, so this receive cannot pin the epoch
	res := <-applied
	if res.Registered["p"] != 0 {
		t.Fatalf("registered ids = %v", res.Registered)
	}
	if r.State() != StateRest {
		t.Fatalf("state = %v", r.State())
	}
	g.Release()
}

func TestDeregisterUnknown(t *testing.T) {
	var tail atomic.Uint64
	r, _ := newRegistry(&tail)
	if _, err := r.Deregister(99); err == nil {
		t.Fatal("deregistered unknown id")
	}
}

func TestLookupByName(t *testing.T) {
	var tail atomic.Uint64
	r, _ := newRegistry(&tail)
	id, _, err := r.Register(Projection("x"))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := r.LookupByName("proj(x)")
	if !ok || got != id {
		t.Fatalf("LookupByName = %d, %v", got, ok)
	}
	if _, ok := r.LookupByName("nope"); ok {
		t.Fatal("found non-existent name")
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{From: 100, To: 200}
	if iv.Contains(99) || !iv.Contains(100) || !iv.Contains(199) || iv.Contains(200) {
		t.Fatal("Contains boundary behaviour wrong")
	}
	open := Interval{From: 10, To: math.MaxUint64}
	if !open.Open() || !open.Contains(1<<40) {
		t.Fatal("open interval")
	}
}

func TestReRegistrationCreatesSecondInterval(t *testing.T) {
	var tail atomic.Uint64
	r, _ := newRegistry(&tail)
	tail.Store(100)
	id1, _, err := r.Register(Projection("x"))
	if err != nil {
		t.Fatal(err)
	}
	tail.Store(200)
	if _, err := r.Deregister(id1); err != nil {
		t.Fatal(err)
	}
	tail.Store(300)
	// Same definition re-registered gets a new id and interval.
	id2, res, err := r.Register(Projection("x"))
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Fatal("id reuse")
	}
	if res.SafeRegisterBoundary != 300 {
		t.Fatalf("boundary = %d", res.SafeRegisterBoundary)
	}
}

func TestRegistryStatus(t *testing.T) {
	var tail atomic.Uint64
	r, _ := newRegistry(&tail)
	st := r.Status()
	if st.State != "REST" || st.Version != 0 || st.Active != 0 || len(st.PSFs) != 0 {
		t.Fatalf("fresh registry status = %+v", st)
	}

	tail.Store(100)
	idA, _, err := r.Register(Projection("city"))
	if err != nil {
		t.Fatal(err)
	}
	tail.Store(250)
	idB, _, err := r.Register(Projection("stars"))
	if err != nil {
		t.Fatal(err)
	}
	tail.Store(400)
	if _, err := r.Deregister(idA); err != nil {
		t.Fatal(err)
	}

	st = r.Status()
	if st.State != "REST" || st.Active != 1 {
		t.Fatalf("status after dereg = %+v", st)
	}
	if len(st.PSFs) != 2 {
		t.Fatalf("status lists %d PSFs, want 2 (history kept)", len(st.PSFs))
	}
	if st.PSFs[0].ID != idA || st.PSFs[1].ID != idB {
		t.Fatalf("PSFs not sorted by id: %+v", st.PSFs)
	}
	a, b := st.PSFs[0], st.PSFs[1]
	if a.Active {
		t.Fatal("deregistered PSF reported active")
	}
	if len(a.Intervals) != 1 || a.Intervals[0].From != 100 || a.Intervals[0].To != 400 {
		t.Fatalf("deregistered PSF intervals = %+v", a.Intervals)
	}
	if !b.Active || len(b.Intervals) != 1 || b.Intervals[0].From != 250 || !b.Intervals[0].Open() {
		t.Fatalf("active PSF = %+v", b)
	}
	if b.Kind != "projection" || b.Name != "proj(stars)" {
		t.Fatalf("definition summary = %+v", b)
	}
	if st.Version == 0 || len(st.Fields) != 1 || st.Fields[0] != "stars" {
		t.Fatalf("version/fields = %d %v", st.Version, st.Fields)
	}
}
