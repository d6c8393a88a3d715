package storage

import (
	"bytes"
	"errors"
	"testing"

	"fishstore/internal/trace"
)

func TestFaultDevicePassthrough(t *testing.T) {
	d := NewFaultDevice(NewMem(), FaultConfig{Seed: 1})
	data := bytes.Repeat([]byte{0xab}, 4096)
	if n, err := d.WriteAt(data, 0); err != nil || n != len(data) {
		t.Fatalf("WriteAt = (%d, %v)", n, err)
	}
	got := make([]byte, 4096)
	if n, err := d.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("ReadAt = (%d, %v)", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := d.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.Syncs != 1 || st.TornWrites != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFaultDevicePowerCutAtWriteN(t *testing.T) {
	mem := NewMem()
	d := NewFaultDevice(mem, FaultConfig{Seed: 7, PowerCutAtWrite: 3})
	page := bytes.Repeat([]byte{0x11}, 4096)
	for i := 0; i < 2; i++ {
		if _, err := d.WriteAt(page, int64(i)*4096); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Write 3 carries the cut: only an aligned prefix may survive.
	if _, err := d.WriteAt(bytes.Repeat([]byte{0x22}, 4096), 2*4096); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut write err = %v, want ErrPowerCut", err)
	}
	if !d.IsCut() {
		t.Fatal("device not cut")
	}
	if _, err := d.WriteAt(page, 3*4096); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("post-cut write err = %v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("post-cut sync err = %v", err)
	}
	// The surviving image: writes 1-2 intact, write 3 a prefix of 0x22 then
	// zeros, write 4 absent. Reads still work (post-reboot inspection).
	got := make([]byte, 4*4096)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatalf("post-cut read: %v", err)
	}
	for i := 0; i < 2*4096; i++ {
		if got[i] != 0x11 {
			t.Fatalf("byte %d of surviving prefix = %#x", i, got[i])
		}
	}
	tornEnd := 2 * 4096
	for ; tornEnd < 3*4096 && got[tornEnd] == 0x22; tornEnd++ {
	}
	if (tornEnd-2*4096)%512 != 0 {
		t.Fatalf("tear point %d not sector aligned", tornEnd-2*4096)
	}
	for i := tornEnd; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d beyond tear = %#x, want 0", i, got[i])
		}
	}
	if st := d.Stats(); st.CutAtWrite != 3 {
		t.Fatalf("CutAtWrite = %d, want 3", st.CutAtWrite)
	}
}

func TestFaultDeviceDeterministicSchedule(t *testing.T) {
	run := func() FaultStats {
		d := NewFaultDevice(NewMem(), FaultConfig{Seed: 99, TornWriteProb: 0.3, ShortReadProb: 0.3})
		buf := make([]byte, 8192)
		for i := 0; i < 50; i++ {
			_, _ = d.WriteAt(buf, int64(i)*8192) // faults are the point; errors are tallied in Stats
			_, _ = d.ReadAt(buf, int64(i)*8192)
		}
		return d.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different schedules: %+v vs %+v", a, b)
	}
	if a.TornWrites == 0 || a.ShortReads == 0 {
		t.Fatalf("faults never fired: %+v", a)
	}
}

func TestFaultDeviceTornWriteReportsError(t *testing.T) {
	d := NewFaultDevice(NewMem(), FaultConfig{Seed: 3, TornWriteProb: 1})
	n, err := d.WriteAt(make([]byte, 4096), 0)
	if !errors.Is(err, ErrTornWrite) {
		t.Fatalf("err = %v, want ErrTornWrite", err)
	}
	if n%512 != 0 || n >= 4096 {
		t.Fatalf("torn write persisted %d bytes", n)
	}
}

func TestFaultDeviceShortReadReportsError(t *testing.T) {
	d := NewFaultDevice(NewMem(), FaultConfig{Seed: 3, ShortReadProb: 1})
	d.Unwrap().WriteAt(make([]byte, 4096), 0)
	n, err := d.ReadAt(make([]byte, 4096), 0)
	if !errors.Is(err, ErrShortRead) {
		t.Fatalf("err = %v, want ErrShortRead", err)
	}
	if n >= 4096 {
		t.Fatalf("short read returned %d bytes", n)
	}
}

func TestFaultDeviceFailNextRead(t *testing.T) {
	d := NewFaultDevice(NewMem(), FaultConfig{Seed: 1})
	boom := errors.New("transient EIO")
	d.FailNextRead(boom)
	if _, err := d.ReadAt(make([]byte, 8), 0); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected", err)
	}
	if _, err := d.ReadAt(make([]byte, 8), 0); err != nil {
		t.Fatalf("injection not one-shot: %v", err)
	}
}

func TestFaultDeviceFailSync(t *testing.T) {
	d := NewFaultDevice(NewMem(), FaultConfig{Seed: 1, FailSyncProb: 1})
	if err := d.Sync(); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("err = %v, want ErrSyncFailed", err)
	}
}

func TestSyncUnwrapsToSyncer(t *testing.T) {
	// Instrumented (timing and spans) wraps FaultDevice wraps Mem: Sync
	// must reach the FaultDevice's Syncer through the chain.
	fd := NewFaultDevice(NewMem(), FaultConfig{Seed: 1, FailSyncProb: 1})
	wrapped := NewInstrumented(fd, nil, trace.New(trace.Options{}))
	if err := Sync(wrapped); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("Sync through wrapper = %v, want ErrSyncFailed", err)
	}
	// Mem has no Syncer: Sync is a no-op.
	if err := Sync(NewMem()); err != nil {
		t.Fatalf("Sync(Mem) = %v", err)
	}
}

func TestFlipRandomBits(t *testing.T) {
	mem := NewMem()
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := mem.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	fd := NewFaultDevice(mem, FaultConfig{Seed: 7})
	flips, err := fd.FlipRandomBits(16, 1024, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 16 {
		t.Fatalf("flips = %d", len(flips))
	}
	got := make([]byte, len(data))
	if _, err := mem.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	diff := map[int64]int{}
	for _, f := range flips {
		if f/8 < 1024 || f/8 >= 2048 {
			t.Fatalf("flip %d outside requested range", f)
		}
		diff[f/8]++
	}
	for i := range got {
		if got[i] == data[i] {
			if diff[int64(i)]%2 == 1 {
				t.Fatalf("byte %d should differ (odd flips)", i)
			}
			continue
		}
		if diff[int64(i)] == 0 {
			t.Fatalf("byte %d changed without a recorded flip", i)
		}
	}
	// Deterministic under the same seed.
	mem2 := NewMem()
	if _, err := mem2.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	fd2 := NewFaultDevice(mem2, FaultConfig{Seed: 7})
	flips2, err := fd2.FlipRandomBits(16, 1024, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flips {
		if flips[i] != flips2[i] {
			t.Fatalf("seeded flips diverge at %d: %d vs %d", i, flips[i], flips2[i])
		}
	}
}

func TestFaultDeviceENOSPCAndReclaim(t *testing.T) {
	mem := NewMem()
	fd := NewFaultDevice(mem, FaultConfig{CapacityBytes: 4096})
	buf := make([]byte, 1024)
	for i := int64(0); i < 4; i++ {
		if _, err := fd.WriteAt(buf, i*1024); err != nil {
			t.Fatalf("write %d within capacity failed: %v", i, err)
		}
	}
	if _, err := fd.WriteAt(buf, 4096); !IsNoSpace(err) {
		t.Fatalf("write past capacity: got %v, want ErrNoSpace", err)
	}
	if st := fd.Stats(); st.NoSpaceWrites != 1 {
		t.Fatalf("NoSpaceWrites = %d, want 1", st.NoSpaceWrites)
	}
	// Reclaiming the first half frees capacity for the refused write.
	if err := fd.TruncateBefore(2048); err != nil {
		t.Fatal(err)
	}
	if used := fd.SpaceUsed(); used != 2048 {
		t.Fatalf("SpaceUsed = %d after reclaim, want 2048", used)
	}
	if _, err := fd.WriteAt(buf, 4096); err != nil {
		t.Fatalf("write after reclaim failed: %v", err)
	}

	// Armed ENOSPC is sticky until space is reclaimed.
	fd2 := NewFaultDevice(NewMem(), FaultConfig{})
	fd2.ArmENOSPC(2)
	if _, err := fd2.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fd2.WriteAt(buf, 1024); !IsNoSpace(err) {
		t.Fatalf("armed write: got %v, want ErrNoSpace", err)
	}
	if _, err := fd2.WriteAt(buf, 2048); !IsNoSpace(err) {
		t.Fatalf("ENOSPC must stay stuck: got %v", err)
	}
	if err := fd2.TruncateBefore(1024); err != nil {
		t.Fatal(err)
	}
	if _, err := fd2.WriteAt(buf, 2048); err != nil {
		t.Fatalf("write after reclaim cleared ENOSPC failed: %v", err)
	}
}

// TestFaultDeviceCapacityWritePastHole: the capacity cap counts like a
// sparse file, so a page flushed ahead of its predecessors is charged only
// its own bytes, and rewriting held bytes costs nothing more.
func TestFaultDeviceCapacityWritePastHole(t *testing.T) {
	page := make([]byte, 4096)
	fd := NewFaultDevice(NewMem(), FaultConfig{CapacityBytes: 8192})
	if _, err := fd.WriteAt(page, 3*4096); err != nil {
		t.Fatalf("write past a hole: %v", err)
	}
	if _, err := fd.WriteAt(page[:1024], 3*4096+512); err != nil {
		t.Fatal(err)
	}
	if used := fd.SpaceUsed(); used != 4096 {
		t.Fatalf("SpaceUsed = %d, want 4096", used)
	}
	// The predecessors land late: one fits, the next is over the cap.
	if _, err := fd.WriteAt(page, 0); err != nil {
		t.Fatalf("late predecessor within capacity: %v", err)
	}
	if _, err := fd.WriteAt(page, 4096); !IsNoSpace(err) {
		t.Fatalf("write past capacity: got %v, want ErrNoSpace", err)
	}
}

// TestFaultDeviceCapacityReclaimBeyondWritten: a reclaim issued beyond the
// highest written byte still holds for later writes above it, and bytes
// written into a reclaimed range count again until the next reclaim.
func TestFaultDeviceCapacityReclaimBeyondWritten(t *testing.T) {
	page := make([]byte, 4096)
	fd := NewFaultDevice(NewMem(), FaultConfig{CapacityBytes: 8192})
	if _, err := fd.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	if err := fd.TruncateBefore(3 * 4096); err != nil {
		t.Fatal(err)
	}
	if used := fd.SpaceUsed(); used != 0 {
		t.Fatalf("SpaceUsed = %d after reclaiming everything, want 0", used)
	}
	for _, pg := range []int64{3, 4} {
		if _, err := fd.WriteAt(page, pg*4096); err != nil {
			t.Fatalf("page %d above a reclaim beyond the written end: %v", pg, err)
		}
	}
	if _, err := fd.WriteAt(page, 4096); !IsNoSpace(err) {
		t.Fatalf("write into the reclaimed range on a full device: got %v, want ErrNoSpace", err)
	}
	if err := fd.TruncateBefore(4 * 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.WriteAt(page, 4096); err != nil {
		t.Fatalf("write into the reclaimed range after space freed: %v", err)
	}
	if used := fd.SpaceUsed(); used != 8192 {
		t.Fatalf("SpaceUsed = %d, want 8192", used)
	}
}
