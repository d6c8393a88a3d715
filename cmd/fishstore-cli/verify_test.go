package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fishstore"
	"fishstore/internal/hlog"
	"fishstore/internal/psf"
	"fishstore/internal/record"
	"fishstore/internal/storage"
)

// buildLogFixture writes a small log (and checkpoint) to dir and returns the
// log file path.
func buildLogFixture(t *testing.T, dir string) (logPath, ckptDir string) {
	t.Helper()
	logPath = filepath.Join(dir, "log.dat")
	dev, err := storage.OpenFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := fishstore.Open(fishstore.Options{Device: dev, PageBits: 12, MemPages: 4, TableBuckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RegisterPSF(psf.Projection("repo.name")); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	for i := 0; i < 50; i++ {
		payload := fmt.Sprintf(`{"id": %d, "type": "PushEvent", "repo": {"name": "spark"}}`, i)
		if _, err := sess.Ingest([][]byte{[]byte(payload)}); err != nil {
			t.Fatal(err)
		}
	}
	ckptDir = filepath.Join(dir, "ckpt")
	if err := s.Checkpoint(ckptDir); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return logPath, ckptDir
}

func TestVerifyCleanLog(t *testing.T) {
	logPath, ckptDir := buildLogFixture(t, t.TempDir())
	var out, errb bytes.Buffer
	if code := verifyMain([]string{"-log", logPath, "-ckpt", ckptDir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on a clean log; stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("stdout %q does not report ok", out.String())
	}
	if !strings.Contains(out.String(), "50 records") {
		t.Fatalf("stdout %q does not report the 50 walked records", out.String())
	}
}

func TestVerifyDetectsCorruptedPage(t *testing.T) {
	logPath, _ := buildLogFixture(t, t.TempDir())

	// Smash the first record's key-pointer word in the fixture.
	f, err := os.OpenFile(logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xFF}, 8)
	if _, err := f.WriteAt(junk, int64(hlog.BeginAddress)+8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out, errb bytes.Buffer
	code := verifyMain([]string{"-log", logPath, "-page-bits", "12"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d on a corrupted log, want 1; stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "CORRUPT") {
		t.Fatalf("stdout %q does not flag the corruption", out.String())
	}
	if !strings.Contains(out.String(), fmt.Sprint(uint64(hlog.BeginAddress))) {
		t.Fatalf("stdout %q does not name the damaged address", out.String())
	}
}

// corruptRecordPayload flips one bit in the last payload word of the n-th
// record in the log file (skipping fillers), returning that record's address.
func corruptRecordPayload(t *testing.T, logPath string, n int) uint64 {
	t.Helper()
	f, err := os.OpenFile(logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var buf [8]byte
	addr := uint64(hlog.BeginAddress)
	for i := 0; ; {
		if _, err := f.ReadAt(buf[:], int64(addr)); err != nil {
			t.Fatalf("ran out of records at %d looking for record %d: %v", addr, n, err)
		}
		h := record.Header(binary.LittleEndian.Uint64(buf[:]))
		if h.SizeWords() <= 0 {
			t.Fatalf("ran out of records at %d looking for record %d", addr, n)
		}
		if !h.Filler() {
			if i == n {
				off := int64(addr) + int64(h.SizeWords()-2)*8
				var b [1]byte
				if _, err := f.ReadAt(b[:], off); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x01
				if _, err := f.WriteAt(b[:], off); err != nil {
					t.Fatal(err)
				}
				return addr
			}
			i++
		}
		addr += uint64(h.SizeWords()) * 8
	}
}

func TestVerifyRepair(t *testing.T) {
	logPath, ckptDir := buildLogFixture(t, t.TempDir())
	addr := corruptRecordPayload(t, logPath, 30)
	sizeBefore := fileSize(t, logPath)

	// Dry run (with -ckpt so the below-durable-tail warning fires): reports
	// the checksum corruption and what truncation would drop, changes nothing.
	var out, errb bytes.Buffer
	code := verifyMain([]string{"-log", logPath, "-ckpt", ckptDir}, &out, &errb)
	if code != 1 {
		t.Fatalf("dry run exit %d, want 1; stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	for _, want := range []string{
		"CORRUPT", "checksum mismatch", fmt.Sprint(addr),
		"dry run", "WARNING", "checkpointed tail",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("dry-run stdout %q missing %q", out.String(), want)
		}
	}
	if got := fileSize(t, logPath); got != sizeBefore {
		t.Fatalf("dry run changed the file size: %d -> %d", sizeBefore, got)
	}

	// -repair: truncates at the corrupt record and re-verifies clean.
	out.Reset()
	errb.Reset()
	code = verifyMain([]string{"-log", logPath, "-page-bits", "12", "-repair"}, &out, &errb)
	if code != 0 {
		t.Fatalf("repair exit %d, want 0; stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "truncated") || !strings.Contains(out.String(), "30 records") {
		t.Fatalf("repair stdout %q missing the truncation report or the 30 surviving records", out.String())
	}
	if got := fileSize(t, logPath); got != int64(addr) {
		t.Fatalf("repaired file is %d bytes, want truncation at %d", got, addr)
	}

	// The repaired log now verifies clean on its own.
	out.Reset()
	if code := verifyMain([]string{"-log", logPath, "-page-bits", "12"}, &out, &errb); code != 0 {
		t.Fatalf("re-verify exit %d, want 0; stdout=%q", code, out.String())
	}
}

func TestVerifyRepairNotApplicableToTruncatedLog(t *testing.T) {
	logPath, ckptDir := buildLogFixture(t, t.TempDir())
	// Chop the log well short of the manifest tail: repair cannot invent the
	// missing bytes, so -repair must refuse rather than truncate further.
	if err := os.Truncate(logPath, int64(hlog.BeginAddress)); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := verifyMain([]string{"-log", logPath, "-ckpt", ckptDir, "-repair"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "not applicable") {
		t.Fatalf("stdout %q does not refuse the repair", out.String())
	}
	if got := fileSize(t, logPath); got != int64(hlog.BeginAddress) {
		t.Fatalf("refused repair still changed the file: %d", got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestVerifyUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := verifyMain(nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d without -log, want 2", code)
	}
	if code := verifyMain([]string{"-log", filepath.Join(t.TempDir(), "missing.dat")}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for a missing file, want 2", code)
	}
}
