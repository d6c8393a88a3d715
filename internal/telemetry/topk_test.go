package telemetry

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTopKBasics(t *testing.T) {
	tk := NewTopK(4)
	tk.Observe("a", 10, 100)
	tk.Observe("b", 5, 50)
	tk.Observe("a", 10, 100)
	top := tk.Top(10)
	if len(top) != 2 {
		t.Fatalf("len = %d, want 2", len(top))
	}
	if top[0].Key != "a" || top[0].Records != 20 || top[0].Bytes != 200 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Key != "b" || top[1].Records != 5 {
		t.Fatalf("top[1] = %+v", top[1])
	}
}

func TestTopKEviction(t *testing.T) {
	tk := NewTopK(2)
	tk.Observe("a", 100, 0)
	tk.Observe("b", 1, 0)
	tk.Observe("c", 1, 0) // evicts b (min), inherits its count as error
	top := tk.Top(0)
	if len(top) != 2 {
		t.Fatalf("len = %d, want 2", len(top))
	}
	if top[0].Key != "a" {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Key != "c" || top[1].Records != 2 || top[1].ErrRecords != 1 {
		t.Fatalf("evicting insert: %+v", top[1])
	}
}

// TestTopKHeavyHitterGuarantee: with a skewed stream, the true heavy hitter
// must survive arbitrary interleaving with noise keys.
func TestTopKHeavyHitterGuarantee(t *testing.T) {
	tk := NewTopK(8)
	for i := 0; i < 1000; i++ {
		tk.Observe("hot", 1, 10)
		tk.Observe(fmt.Sprintf("noise-%d", i), 1, 1)
	}
	top := tk.Top(1)
	if len(top) != 1 || top[0].Key != "hot" {
		t.Fatalf("heavy hitter lost: %+v", top)
	}
	if top[0].Records < 1000 {
		t.Fatalf("heavy hitter undercounted: %+v", top[0])
	}
}

func TestTopKNilSafe(t *testing.T) {
	var tk *TopK
	tk.Observe("a", 1, 1)
	if tk.Top(5) != nil || tk.Len() != 0 {
		t.Fatal("nil TopK must be inert")
	}
}

// TestTopKSpaceSavingBounds drives a full sketch with weighted, skewed
// streams through both entry points and checks the space-saving
// guarantees: the tracked counts sum to the observed total, each reported
// count brackets the true one, every key above total/capacity is present,
// and only a key holding the minimum count is ever evicted.
func TestTopKSpaceSavingBounds(t *testing.T) {
	const capacity = 8
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		tk := NewTopK(capacity)
		truth := map[string]int64{}
		var total int64
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("k%d", int(rng.ExpFloat64()*6))
			w := int64(rng.Intn(5))
			before := tk.Top(0)
			tracked := false
			for _, h := range before {
				tracked = tracked || h.Key == key
			}
			if i%2 == 0 {
				tk.Observe(key, w, 2*w)
			} else {
				tk.ObserveBytes([]byte(key), w, 2*w)
			}
			truth[key] += w
			total += w
			if !tracked && len(before) == capacity {
				after := map[string]bool{}
				for _, h := range tk.Top(0) {
					after[h.Key] = true
				}
				min := before[len(before)-1].Records
				for _, h := range before {
					if !after[h.Key] && h.Records != min {
						t.Fatalf("round %d: evicted %+v, minimum count is %d", round, h, min)
					}
				}
			}
		}
		var sum int64
		top := tk.Top(0)
		for _, h := range top {
			sum += h.Records
			if h.Bytes != 2*h.Records {
				t.Fatalf("round %d: %+v: bytes do not follow records", round, h)
			}
			if tr := truth[h.Key]; tr > h.Records || tr < h.Records-h.ErrRecords {
				t.Fatalf("round %d: %+v does not bracket true count %d", round, h, tr)
			}
		}
		if sum != total {
			t.Fatalf("round %d: tracked counts sum to %d, observed %d", round, sum, total)
		}
		for k, tr := range truth {
			if tr <= total/capacity {
				continue
			}
			found := false
			for _, h := range top {
				found = found || h.Key == k
			}
			if !found {
				t.Fatalf("round %d: heavy key %s (%d of %d) missing: %+v", round, k, tr, total, top)
			}
		}
	}
}
