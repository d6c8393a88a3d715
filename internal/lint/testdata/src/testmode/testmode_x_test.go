package testmode_test

import (
	"sync/atomic"
	"testing"

	"fishstore/internal/lint/testdata/src/testmode"
)

// The external test variant exercises go list -test's ImportMap: this
// package's import of testmode resolves to the test variant.
func TestExternalPack(t *testing.T) {
	v, _ := testmode.PackChecked(1, 2) // no errflow finding: _test.go is exempt
	if v == 0 {
		t.Fatal("pack lost the offset")
	}
}

type cell struct{ addr uint64 }

// patchShared seeds a plain write through an atomically loaded pointer in
// the external test package, so a finding here proves the testmode_test
// compilation unit really is analyzed.
func patchShared(head *atomic.Pointer[cell]) {
	c := head.Load()
	c.addr = testmode.Pack(3, 9) // want puborder "acquired from"
}

var _ = patchShared
