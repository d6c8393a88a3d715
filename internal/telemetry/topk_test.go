package telemetry

import (
	"fmt"
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
