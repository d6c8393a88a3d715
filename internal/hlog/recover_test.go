package hlog

import (
	"fmt"
	"testing"

	"fishstore/internal/epoch"
	"fishstore/internal/storage"
)

func TestRecoverRoundTrip(t *testing.T) {
	dev := storage.NewMem()
	em := epoch.New()
	cfg := Config{PageBits: 12, MemPages: 3, Device: dev, Epoch: em}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := em.Acquire()
	type rec struct {
		addr Address
		val  uint64
	}
	var recs []rec
	for i := 0; i < 120; i++ { // several pages
		a, err := l.Allocate(g, 16)
		if err != nil {
			t.Fatal(err)
		}
		a.Words[0] = uint64(0xc0de0000 + i)
		recs = append(recs, rec{a.Address, a.Words[0]})
		g.Refresh()
	}
	g.Release()
	tail := l.TailAddress()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	em2 := epoch.New()
	l2, err := Recover(Config{PageBits: 12, MemPages: 3, Device: dev, Epoch: em2}, tail)
	if err != nil {
		t.Fatal(err)
	}
	if l2.TailAddress() != tail {
		t.Fatalf("recovered tail %d, want %d", l2.TailAddress(), tail)
	}
	// Recent records must be in memory; old ones readable from the device.
	for _, r := range recs {
		var got uint64
		if l2.InMemory(r.addr) {
			got = l2.WordsAt(r.addr, 1)[0]
		} else {
			ws, err := l2.ReadWordsFromDevice(r.addr, 1)
			if err != nil {
				t.Fatal(err)
			}
			got = ws[0]
		}
		if got != r.val {
			t.Fatalf("addr %d: %x, want %x", r.addr, got, r.val)
		}
	}

	// The recovered log must accept new allocations continuing at the tail.
	g2 := em2.Acquire()
	a, err := l2.Allocate(g2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Address != tail {
		t.Fatalf("post-recovery allocation at %d, want %d", a.Address, tail)
	}
	a.Words[0] = 0xabc
	g2.Release()
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverAtPageBoundary(t *testing.T) {
	dev := storage.NewMem()
	em := epoch.New()
	l, err := New(Config{PageBits: 12, MemPages: 2, Device: dev, Epoch: em})
	if err != nil {
		t.Fatal(err)
	}
	g := em.Acquire()
	// Fill page 0 exactly: (4096-64)/8 = 504 words.
	if _, err := l.Allocate(g, 504); err != nil {
		t.Fatal(err)
	}
	g.Release()
	tail := l.TailAddress()
	if tail != 4096 {
		t.Fatalf("tail %d, want 4096", tail)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	em2 := epoch.New()
	l2, err := Recover(Config{PageBits: 12, MemPages: 2, Device: dev, Epoch: em2}, tail)
	if err != nil {
		t.Fatal(err)
	}
	g2 := em2.Acquire()
	a, err := l2.Allocate(g2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Address != 4096 {
		t.Fatalf("allocation after boundary recovery at %d", a.Address)
	}
	g2.Release()
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverRejectsBadTail(t *testing.T) {
	em := epoch.New()
	if _, err := Recover(Config{PageBits: 12, MemPages: 2, Device: storage.NewMem(), Epoch: em}, 3); err == nil {
		t.Fatal("accepted tail below begin address")
	}
}

// TestRecoverAllocatesOnlyResidentFrames: recovery pays for the pages it
// reloads, not for the buffer. The recovered log holds a frame for each of
// the last MemPages pages up to the tail page and none other, every one of
// those pages is in memory, and pages opened after recovery allocate their
// frames as they first use them.
func TestRecoverAllocatesOnlyResidentFrames(t *testing.T) {
	for _, memPages := range []int{16, 3} {
		t.Run(fmt.Sprintf("MemPages=%d", memPages), func(t *testing.T) {
			dev := storage.NewMem()
			em := epoch.New()
			cfg := Config{PageBits: 12, MemPages: 16, Device: dev, Epoch: em}
			l, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := em.Acquire()
			for i := 0; i < 120; i++ { // 15 KB: four pages of 4 KB
				a, err := l.Allocate(g, 16)
				if err != nil {
					t.Fatal(err)
				}
				a.Words[0] = uint64(0xc0de0000 + i)
				g.Refresh()
			}
			g.Release()
			tail := l.TailAddress()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, err := Recover(Config{PageBits: 12, MemPages: memPages, Device: dev, Epoch: epoch.New()}, tail)
			if err != nil {
				t.Fatal(err)
			}
			tailPage := l2.PageOf(tail)
			if tailPage == 0 {
				t.Fatal("log fits one page; the test needs pages below the tail page")
			}
			resident := min(int(tailPage)+1, memPages)
			firstMem := tailPage + 1 - uint64(resident)
			if n := allocatedFrames(l2); n != resident {
				t.Fatalf("%d frames allocated after recovering a %d-page log, want %d", n, tailPage+1, resident)
			}
			head := max(l2.address(firstMem, 0), BeginAddress)
			if l2.HeadAddress() != head || l2.SafeHeadAddress() != head {
				t.Fatalf("head %d, safe head %d, want both at %d", l2.HeadAddress(), l2.SafeHeadAddress(), head)
			}

			g2 := l2.epoch.Acquire()
			for i := 0; i < 64; i++ { // two more pages
				if _, err := l2.Allocate(g2, 16); err != nil {
					t.Fatal(err)
				}
			}
			g2.Release()
			open, _ := unpack(l2.pagedTail.Load())
			if got, want := allocatedFrames(l2), min(resident+int(open-tailPage), memPages); got != want {
				t.Fatalf("%d frames allocated after ingesting pages %d..%d, want %d", got, tailPage, open, want)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
