package psf

import (
	"encoding/json"
	"math"
	"sync/atomic"
	"testing"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	var tail atomic.Uint64
	tail.Store(100)
	r, _ := newRegistry(&tail)

	idProj, _, err := r.Register(Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	pred := MustPredicate("pushes", `type == "PushEvent" && public == true`)
	pred.Shards = 4
	idPred, _, err := r.Register(pred)
	if err != nil {
		t.Fatal(err)
	}
	bucket := RangeBucket("cpu", 25)
	_, _, err = r.Register(bucket)
	if err != nil {
		t.Fatal(err)
	}
	tail.Store(500)
	if _, err := r.Deregister(idProj); err != nil {
		t.Fatal(err)
	}

	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots must survive JSON (the manifest format).
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back []SnapshotEntry
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}

	var tail2 atomic.Uint64
	r2, _ := newRegistry(&tail2)
	if err := r2.Restore(back, nil); err != nil {
		t.Fatal(err)
	}

	// The deregistered projection keeps its closed interval but is
	// inactive; the predicate is active with shards preserved.
	if _, ok := r2.Lookup(idProj); !ok {
		t.Fatal("historical registration lost")
	}
	ivs := r2.Intervals(idProj)
	if len(ivs) != 1 || ivs[0].From != 100 || ivs[0].To != 500 {
		t.Fatalf("projection intervals = %+v", ivs)
	}
	def, ok := r2.Lookup(idPred)
	if !ok || def.Shards != 4 || def.Predicate == nil {
		t.Fatalf("predicate restore: %+v ok=%v", def, ok)
	}
	if got := len(r2.CurrentMeta().PSFs); got != 2 {
		t.Fatalf("active PSFs after restore = %d, want 2", got)
	}
	// New registrations must not collide with restored ids.
	idNew, _, err := r2.Register(Projection("other"))
	if err != nil {
		t.Fatal(err)
	}
	if idNew == idProj || idNew == idPred {
		t.Fatalf("restored registry reused id %d", idNew)
	}
}

func TestRestoreCustomNeedsResolver(t *testing.T) {
	var tail atomic.Uint64
	r, _ := newRegistry(&tail)
	entries := []SnapshotEntry{{ID: 0, Name: "c", Kind: KindCustom, Fields: []string{"x"}, Active: true}}
	if err := r.Restore(entries, nil); err == nil {
		t.Fatal("restored custom PSF without resolver")
	}
}

func TestMergeIntervals(t *testing.T) {
	cases := []struct {
		in   []Interval
		want []Interval
	}{
		{nil, nil},
		{[]Interval{{From: 10, To: 20}}, []Interval{{From: 10, To: 20}}},
		{[]Interval{{From: 10, To: 20}, {From: 30, To: 40}}, []Interval{{From: 10, To: 20}, {From: 30, To: 40}}},
		{[]Interval{{From: 30, To: 40}, {From: 10, To: 20}}, []Interval{{From: 10, To: 20}, {From: 30, To: 40}}},
		{[]Interval{{From: 10, To: 20}, {From: 15, To: 30}}, []Interval{{From: 10, To: 30}}},
		{[]Interval{{From: 10, To: 20}, {From: 20, To: 30}}, []Interval{{From: 10, To: 30}}},
		{[]Interval{{From: 10, To: 20}, {From: 12, To: 14}}, []Interval{{From: 10, To: 20}}},
		{[]Interval{{From: 10, To: math.MaxUint64}, {From: 20, To: 30}}, []Interval{{From: 10, To: math.MaxUint64}}},
		// Historical and inline coverage stay apart, even when adjacent.
		{[]Interval{{From: 20, To: 30}, {From: 10, To: 20, Historical: true}}, []Interval{{From: 10, To: 20, Historical: true}, {From: 20, To: 30}}},
		{[]Interval{{From: 0, To: 10, Historical: true}, {From: 10, To: 20, Historical: true}}, []Interval{{From: 0, To: 20, Historical: true}}},
	}
	for i, c := range cases {
		got := mergeIntervals(append([]Interval(nil), c.in...))
		if len(got) != len(c.want) {
			t.Fatalf("case %d: %+v, want %+v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: %+v, want %+v", i, got, c.want)
			}
		}
	}
}

func TestExtendInterval(t *testing.T) {
	var tail atomic.Uint64
	tail.Store(1000)
	r, _ := newRegistry(&tail)
	id, _, err := r.Register(Projection("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ExtendInterval(id, Interval{From: 0, To: 500}); err != nil {
		t.Fatal(err)
	}
	ivs := r.Intervals(id)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %+v", ivs)
	}
	if ivs[0] != (Interval{From: 0, To: 500, Historical: true}) || ivs[1].From != 1000 || !ivs[1].Open() {
		t.Fatalf("intervals = %+v", ivs)
	}
	if err := r.ExtendInterval(99, Interval{}); err == nil {
		t.Fatal("extended unknown id")
	}
}
