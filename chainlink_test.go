package fishstore

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/storage"
)

// deviceWord reads the 8-byte word at addr on dev.
func deviceWord(t *testing.T, dev storage.Device, addr uint64) uint64 {
	t.Helper()
	var b [8]byte
	if _, err := dev.ReadAt(b[:], int64(addr)); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(b[:])
}

// setDeviceWord overwrites the 8-byte word at addr on dev.
func setDeviceWord(t *testing.T, dev storage.Device, addr, w uint64) {
	t.Helper()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	if _, err := dev.WriteAt(b[:], int64(addr)); err != nil {
		t.Fatal(err)
	}
}

// chainOnDevice fills a store on dev, which writes through to mem. Its one
// PSF projects repo.name, so every record carries one key pointer on the
// single "spark" chain. It returns the property, the number of records, and
// the addresses and sizes of the records wholly on the device (below the
// head), oldest first. Each record's key pointer links to the key pointer of
// the record before it.
func chainOnDevice(t *testing.T, dev storage.Device, mem *storage.Mem, opts Options) (*Store, Property, int, []uint64, []int) {
	t.Helper()
	opts.Device, opts.PageBits, opts.MemPages = dev, 12, 4
	s := openTestStore(t, opts)
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	n := fillToDevice(t, s)
	addrs, sizes := deviceRecordAddrs(t, mem, s.log.HeadAddress())
	if len(addrs) < 8 {
		t.Fatalf("only %d records below head", len(addrs))
	}
	for i := 1; i < len(addrs); i++ {
		if prev := record.PrevAddressOf(deviceWord(t, mem, kptOf(addrs[i]))); prev != kptOf(addrs[i-1]) {
			t.Fatalf("record %d links to %d, want the key pointer of record %d at %d", i, prev, i-1, kptOf(addrs[i-1]))
		}
	}
	return s, PropertyString(id, "spark"), n, addrs, sizes
}

// kptOf is the address of the first key pointer of the record at addr.
func kptOf(addr uint64) uint64 { return addr + record.HeaderWords*8 }

// TestVerifyLogFindsUnreachableKeyPointer: a prev address flipped to skip a
// record still lands on a real key pointer, so only the check that every
// valid record is reached sees the index fall short.
func TestVerifyLogFindsUnreachableKeyPointer(t *testing.T) {
	mem := storage.NewMem()
	s, _, _, addrs, _ := chainOnDevice(t, mem, mem, Options{})
	k := len(addrs) / 2
	a := deviceWord(t, mem, kptOf(addrs[k+1]))
	setDeviceWord(t, mem, kptOf(addrs[k+1]), a&^record.PrevAddressOf(a)|kptOf(addrs[k-1]))

	rep, err := s.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Corruption; c == nil || c.Kind != "unreachable-key-pointer" || c.Address != kptOf(addrs[k]) {
		t.Fatalf("corruption = %v, want unreachable-key-pointer at %d", c, kptOf(addrs[k]))
	}
}

// TestVerifyLogFindsChainMembership: a key pointer whose value no longer
// hashes to the chain it is on ("spar" on the "spark" chain) fails fsck.
func TestVerifyLogFindsChainMembership(t *testing.T) {
	mem := storage.NewMem()
	s, _, _, addrs, _ := chainOnDevice(t, mem, mem, Options{})
	k := len(addrs) / 2
	a := deviceWord(t, mem, kptOf(addrs[k]))
	b := deviceWord(t, mem, kptOf(addrs[k])+8)
	kp := record.UnpackKeyPointer(a, b)
	shorter := b
	for bit := 0; bit < 64; bit++ { // the bit that shortens the value by one byte
		if c := b ^ 1<<bit; record.UnpackKeyPointer(a, c) == (record.KeyPointer{PrevAddress: kp.PrevAddress,
			Mode: kp.Mode, OffsetWords: kp.OffsetWords, PSFID: kp.PSFID, ValOffset: kp.ValOffset, ValSize: kp.ValSize - 1}) {
			shorter = c
			break
		}
	}
	if shorter == b {
		t.Fatalf("no single bit of %+v shortens its value", kp)
	}
	setDeviceWord(t, mem, kptOf(addrs[k])+8, shorter)

	rep, err := s.VerifyLog(VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Corruption; c == nil || c.Kind != "chain-membership" || c.Address != kptOf(addrs[k]) {
		t.Fatalf("corruption = %v, want chain-membership at %d", c, kptOf(addrs[k]))
	}
}

// TestChainLinkIntoRecord: a prev address aimed into the middle of a record
// — at its last word, rewritten so its bits read as a back-offset to the
// record's header — names no key pointer slot. Both device chain readers
// (page cache and raw) reject it: under VerifyOnRead the link is quarantined
// and the walk ends without an error; without it the scan fails. Neither
// reads a key pointer past the record's end.
func TestChainLinkIntoRecord(t *testing.T) {
	for _, verify := range []bool{true, false} {
		mem := storage.NewMem()
		s, prop, n, addrs, sizes := chainOnDevice(t, mem, mem, Options{VerifyOnRead: verify})
		k := len(addrs) / 2
		for k < len(addrs) && sizes[k-1]%2 != 0 { // an even size puts a pointer read at the last word past the end
			k++
		}
		if k == len(addrs) {
			t.Fatal("no record of even size below head")
		}
		last := uint64(sizes[k-1] - 1)
		setDeviceWord(t, mem, addrs[k-1]+last*8, last<<50) // the back-offset field of a word A
		a := deviceWord(t, mem, kptOf(addrs[k]))
		setDeviceWord(t, mem, kptOf(addrs[k]), a&^record.PrevAddressOf(a)|(addrs[k-1]+last*8))

		for _, mode := range []ScanMode{ScanForceIndex, ScanIndexNoPrefetch} {
			var got int
			st, err := s.Scan(prop, ScanOptions{Mode: mode}, func(Record) bool {
				got++
				return true
			})
			switch {
			case !verify && err == nil:
				t.Fatalf("mode %d without VerifyOnRead followed a link into a record", mode)
			case verify && err != nil:
				t.Fatalf("mode %d: %v", mode, err)
			case verify && (got != n-k || st.Quarantined != 1):
				t.Fatalf("mode %d surfaced %d records and quarantined %d, want %d and 1", mode, got, st.Quarantined, n-k)
			}
		}
	}
}

// truncatingDevice truncates the store when a read starts at the address at,
// then serves every read below the new floor as zeros, as a device whose
// reclaimed space is gone.
type truncatingDevice struct {
	storage.Device
	s         *Store
	at, floor uint64
	fired     atomic.Bool
}

func (d *truncatingDevice) ReadAt(p []byte, off int64) (int, error) {
	if uint64(off) == d.at && d.fired.CompareAndSwap(false, true) {
		if err := d.s.TruncateUntil(d.floor); err != nil {
			return 0, err
		}
	}
	if d.fired.Load() && uint64(off) < d.floor {
		clear(p)
		return len(p), nil
	}
	return d.Device.ReadAt(p, off)
}

// TestChainWalkEndsAtTruncationFloor: a chain walk whose next link is
// truncated away while it reads from the device ends at the new floor
// instead of failing on the reclaimed bytes.
func TestChainWalkEndsAtTruncationFloor(t *testing.T) {
	mem := storage.NewMem()
	dev := &truncatingDevice{Device: mem, at: ^uint64(0)}
	s, prop, n, addrs, _ := chainOnDevice(t, dev, mem, Options{})
	k := len(addrs) / 2
	dev.s, dev.at, dev.floor = s, kptOf(addrs[k]), addrs[k+1]

	var got int
	if _, err := s.Scan(prop, ScanOptions{Mode: ScanIndexNoPrefetch}, func(Record) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !dev.fired.Load() {
		t.Fatal("the walk never read the key pointer at the truncation point")
	}
	if want := n - k - 1; got != want {
		t.Fatalf("scan surfaced %d records, want the %d at or above the new floor", got, want)
	}
}
