package introspect

import (
	"sync"
	"testing"
	"time"
)

func TestRingBasics(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 1; i <= 3; i++ {
		r.Put(i)
	}
	if got := r.Snapshot(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("snapshot = %v, want [1 2 3]", got)
	}
	for i := 4; i <= 10; i++ {
		r.Put(i)
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("full ring retains %d items, want 4", len(got))
	}
	for i, want := range []int{7, 8, 9, 10} {
		if got[i] != want {
			t.Fatalf("snapshot = %v, want [7 8 9 10]", got)
		}
	}
	if r.Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	r.Reset()
	if len(r.Snapshot()) != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("Reset left values behind")
	}
	r.Put(11)
	if got := r.Snapshot(); len(got) != 1 || got[0] != 11 {
		t.Fatalf("after Reset snapshot = %v, want [11]", got)
	}
}

// TestRingConcurrent hammers Put from many goroutines while snapshotting;
// run with -race. Every snapshot must be strictly ordered by sequence.
func TestRingConcurrent(t *testing.T) {
	r := NewRing[uint64](64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Put(uint64(i))
			}
		}()
	}
	var snapErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			if len(s) > r.Cap() {
				snapErr = &overflowErr{len(s)}
				return
			}
		}
	}()
	wgDone := make(chan struct{})
	go func() {
		for r.Total() < 20000 {
			time.Sleep(time.Millisecond)
		}
		close(wgDone)
	}()
	<-wgDone
	close(stop)
	wg.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if r.Total() != 20000 {
		t.Fatalf("Total = %d, want 20000", r.Total())
	}
	if len(r.Snapshot()) != 64 {
		t.Fatalf("retained %d, want 64", len(r.Snapshot()))
	}
}

type overflowErr struct{ n int }

func (e *overflowErr) Error() string { return "snapshot exceeded capacity" }
