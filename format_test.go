package fishstore_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fishstore"
	"fishstore/internal/datagen"
	"fishstore/internal/harness"
	"fishstore/internal/storage"
)

// TestDeviceFormatDigest pins the on-device bytes of a fixed ingest: record
// layout, zero padding, key-pointer chains and checksum seals. The log is
// many times the four in-memory frames, so most records are written over a
// recycled frame, whose old bytes must not reach the device.
func TestDeviceFormatDigest(t *testing.T) {
	for name, want := range map[string]string{
		"yelp":   "95810b8618d13c13f130adc5cbb84c72c09201fa0fea27e276d3475ac7938fcd",
		"github": "06c678015379d524fc3f432a4e940041df3dd27fd525887f1141c3452054eb64",
	} {
		t.Run(name, func(t *testing.T) {
			w := harness.Table1()[name]
			dev := storage.NewMem()
			s, _, err := harness.OpenFishStore(w, fishstore.Options{PageBits: 16, MemPages: 4, Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sess := s.NewSession()
			_, err = sess.Ingest(datagen.Batch(w.NewGen(7), 3000))
			sess.Close()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			image := make([]byte, s.TailAddress())
			if _, err := dev.ReadAt(image, 0); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(image)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("device image of %d bytes hashes to %s, want %s", len(image), got, want)
			}
		})
	}
}
