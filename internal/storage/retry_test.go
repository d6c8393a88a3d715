package storage

import (
	"context"
	"errors"
	"testing"
	"time"
)

// flaky fails the first failN calls of each op kind with err, then succeeds.
type flaky struct {
	inner Device
	err   error
	failN int

	readCalls, writeCalls int
}

func (f *flaky) ReadAt(p []byte, off int64) (int, error) {
	f.readCalls++
	if f.readCalls <= f.failN {
		return 0, f.err
	}
	return f.inner.ReadAt(p, off)
}

func (f *flaky) WriteAt(p []byte, off int64) (int, error) {
	f.writeCalls++
	if f.writeCalls <= f.failN {
		return 0, f.err
	}
	return f.inner.WriteAt(p, off)
}

func (f *flaky) Close() error { return f.inner.Close() }

func TestRetryingHealsTransientErrors(t *testing.T) {
	mem := NewMem()
	if _, err := mem.WriteAt([]byte("hello world"), 0); err != nil {
		t.Fatal(err)
	}
	fd := &flaky{inner: mem, err: ErrShortRead, failN: 2}
	var slept []time.Duration
	var retried []string
	r := NewRetrying(fd, RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    8 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
		OnRetry:     func(op string, attempt int, err error) { retried = append(retried, op) },
	})
	buf := make([]byte, 5)
	n, err := r.ReadAt(buf, 0)
	if err != nil || n != 5 || string(buf) != "hello" {
		t.Fatalf("ReadAt = %d, %v, %q", n, err, buf)
	}
	if fd.readCalls != 3 {
		t.Fatalf("readCalls = %d, want 3 (2 failures + success)", fd.readCalls)
	}
	if len(slept) != 2 || len(retried) != 2 || retried[0] != "read" {
		t.Fatalf("slept=%v retried=%v", slept, retried)
	}
	if r.Retries() != 2 {
		t.Fatalf("Retries = %d", r.Retries())
	}
	// Exponential envelope with jitter in [delay/2, delay].
	if slept[0] < time.Millisecond/2 || slept[0] > time.Millisecond {
		t.Fatalf("first backoff %v outside [0.5ms, 1ms]", slept[0])
	}
	if slept[1] < time.Millisecond || slept[1] > 2*time.Millisecond {
		t.Fatalf("second backoff %v outside [1ms, 2ms]", slept[1])
	}
}

func TestRetryingWriteRetryAndExhaustion(t *testing.T) {
	fd := &flaky{inner: NewMem(), err: ErrTornWrite, failN: 1}
	r := NewRetrying(fd, RetryPolicy{Sleep: func(time.Duration) {}})
	if _, err := r.WriteAt([]byte("data"), 0); err != nil {
		t.Fatalf("write after one torn attempt: %v", err)
	}
	if fd.writeCalls != 2 {
		t.Fatalf("writeCalls = %d", fd.writeCalls)
	}

	// A device that never stops failing exhausts MaxAttempts and returns the
	// transient error.
	always := &flaky{inner: NewMem(), err: ErrShortRead, failN: 1 << 30}
	r2 := NewRetrying(always, RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	if _, err := r2.ReadAt(make([]byte, 4), 0); !errors.Is(err, ErrShortRead) {
		t.Fatalf("exhausted retry error = %v", err)
	}
	if always.readCalls != 3 {
		t.Fatalf("readCalls = %d, want MaxAttempts", always.readCalls)
	}
}

func TestRetryingPermanentErrorPassesThrough(t *testing.T) {
	fd := &flaky{inner: NewMem(), err: ErrPowerCut, failN: 1 << 30}
	slept := 0
	r := NewRetrying(fd, RetryPolicy{Sleep: func(time.Duration) { slept++ }})
	if _, err := r.WriteAt([]byte("x"), 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("permanent error = %v", err)
	}
	if fd.writeCalls != 1 || slept != 0 {
		t.Fatalf("permanent error was retried: calls=%d slept=%d", fd.writeCalls, slept)
	}
	if r.Retries() != 0 {
		t.Fatalf("Retries = %d", r.Retries())
	}
}

func TestRetryingUnwrapAndSync(t *testing.T) {
	mem := NewMem()
	r := NewRetrying(mem, RetryPolicy{})
	if Unwrap(r) != mem {
		t.Fatal("Unwrap did not reach the inner device")
	}
	if err := r.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
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

func TestRetryingBackoffAbortsOnCancel(t *testing.T) {
	mem := NewMem()
	if _, err := mem.WriteAt(make([]byte, 16), 0); err != nil {
		t.Fatal(err)
	}
	// Every read fails transiently, so without cancellation the caller would
	// ride out MaxAttempts-1 full backoff waits (~6s here). The bound under
	// test: cancelling mid-backoff returns well before the first delay ends.
	d := NewRetrying(&flaky{inner: mem, err: ErrShortRead, failN: 1 << 30}, RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   2 * time.Second,
		MaxDelay:    2 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	buf := make([]byte, 8)
	start := time.Now()
	_, err := d.ReadAtCtx(ctx, buf, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The device error context must survive for classification.
	if !errors.Is(err, ErrShortRead) {
		t.Logf("note: device error not wrapped (err=%v)", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled read took %v; backoff did not abort on cancellation", elapsed)
	}
}

func TestRetryingCtxNotCancelledBehavesLikeReadAt(t *testing.T) {
	mem := NewMem()
	want := []byte("durable bytes")
	if _, err := mem.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	slept := 0
	d := NewRetrying(&flaky{inner: mem, err: ErrShortRead, failN: 2}, RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(time.Duration) { slept++ },
	})
	buf := make([]byte, len(want))
	if _, err := d.ReadAtCtx(context.Background(), buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(want) {
		t.Fatalf("read %q, want %q", buf, want)
	}
	if slept != 2 {
		t.Fatalf("background context should use the Sleep hook; slept %d times, want 2", slept)
	}
	if got := d.Retries(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
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
