package testmode

import (
	"sync/atomic"
	"testing"
)

func TestPackRoundTrip(t *testing.T) {
	if Pack(3, 9) == 0 {
		t.Fatal("pack lost the offset")
	}
	// errflow exempts _test.go files by design (see NewErrFlow): this
	// dropped error must produce NO finding — the golden match would flag
	// one as unexpected.
	open()
}

type slot struct{ addr uint64 }

// publishThenPatch is the write-after-publish bug shape living inside test
// helper code: readers may already hold s when addr is rewritten.
func publishThenPatch(head *atomic.Pointer[slot]) {
	s := &slot{addr: Pack(1, 2)}
	head.Store(s)
	s.addr = Pack(1, 3) // want puborder "after it was published"
}

var _ = publishThenPatch
