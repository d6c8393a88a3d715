package fishstore

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"fishstore/internal/metrics"
	"fishstore/internal/psf"
)

// TestSubscribeDropNewest pins the default slow-subscriber policy: a full
// buffer drops the incoming record, keeps the oldest window, counts every
// drop on the subscription, and exports the total through
// fishstore_subscription_dropped_total.
func TestSubscribeDropNewest(t *testing.T) {
	reg := metrics.NewRegistry()
	s := openTestStore(t, Options{Metrics: reg})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}

	sub := s.Subscribe(PropertyString(id, "spark"), SubscribeOptions{Buffer: 1})
	defer sub.Cancel()

	batch := make([][]byte, 10)
	for i := range batch {
		batch[i] = genEvent(1000+i, "PushEvent", "spark")
	}
	ingestAll(t, s, batch)

	if got := sub.Dropped(); got != 9 {
		t.Fatalf("Dropped() = %d, want 9 (buffer 1, 10 matches)", got)
	}
	if got := s.metrics.subDropped.Load(); got != 9 {
		t.Fatalf("fishstore_subscription_dropped_total = %d, want 9", got)
	}
	// DropNewest keeps the oldest record: the first ingested match.
	rec := <-sub.Records()
	if !strings.Contains(string(rec.Payload), `"id": 1000`) {
		t.Fatalf("buffered record is %s, want the oldest (id 1000)", rec.Payload)
	}
}

// TestSubscribeDropOldest is the regression test for the DropOldest policy:
// the buffer must hold the freshest window after a burst, with every evicted
// record counted.
func TestSubscribeDropOldest(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}

	sub := s.Subscribe(PropertyString(id, "spark"),
		SubscribeOptions{Buffer: 1, Policy: DropOldest})
	defer sub.Cancel()

	batch := make([][]byte, 10)
	for i := range batch {
		batch[i] = genEvent(2000+i, "PushEvent", "spark")
	}
	ingestAll(t, s, batch)

	if got := sub.Dropped(); got != 9 {
		t.Fatalf("Dropped() = %d, want 9", got)
	}
	// DropOldest keeps the newest record: the last ingested match.
	rec := <-sub.Records()
	if !strings.Contains(string(rec.Payload), `"id": 2009`) {
		t.Fatalf("buffered record is %s, want the newest (id 2009)", rec.Payload)
	}
}

// TestSubscribeBlockLossless: under the Block policy a slow consumer
// receives every match in order — ingestion stalls rather than drops.
func TestSubscribeBlockLossless(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}

	sub := s.Subscribe(PropertyString(id, "spark"),
		SubscribeOptions{Buffer: 1, Policy: Block})
	defer sub.Cancel()

	const n = 25
	var wg sync.WaitGroup
	wg.Add(1)
	var got []string
	go func() {
		defer wg.Done()
		for rec := range sub.Records() {
			// Deliberately slow consumer: the 1-slot buffer fills instantly.
			time.Sleep(200 * time.Microsecond)
			got = append(got, string(rec.Payload))
			if len(got) == n {
				return
			}
		}
	}()

	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = genEvent(3000+i, "PushEvent", "spark")
	}
	ingestAll(t, s, batch)
	wg.Wait()

	if sub.Dropped() != 0 {
		t.Fatalf("Block policy dropped %d records", sub.Dropped())
	}
	if len(got) != n {
		t.Fatalf("consumer saw %d records, want %d", len(got), n)
	}
	for i, p := range got {
		if want := `"id": ` + itoa(3000+i); !strings.Contains(p, want) {
			t.Fatalf("record %d out of order: %s (want %s)", i, p, want)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestSubscribeBlockContextCancel: a Block subscriber whose context dies
// while ingestion is stalled on its full buffer must release the ingester
// instead of wedging it forever.
func TestSubscribeBlockContextCancel(t *testing.T) {
	s := openTestStore(t, Options{})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sub := s.Subscribe(PropertyString(id, "spark"),
		SubscribeOptions{Buffer: 1, Policy: Block, Context: ctx})

	// Nobody drains: the first match fills the buffer, the second blocks the
	// ingesting goroutine until cancel() fires.
	done := make(chan error, 1)
	go func() {
		sess := s.NewSession()
		defer sess.Close()
		_, err := sess.Ingest([][]byte{
			genEvent(1, "PushEvent", "spark"),
			genEvent(2, "PushEvent", "spark"),
			genEvent(3, "PushEvent", "spark"),
		})
		done <- err
	}()

	select {
	case err := <-done:
		t.Fatalf("ingest returned (%v) before cancel: Block never blocked", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ingest after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ingest still wedged 5s after subscription context cancel")
	}

	// The AfterFunc cancel closed the channel; draining must terminate.
	for range sub.Records() {
	}
	if !sub.closed.Load() {
		t.Fatal("subscription not closed by context cancellation")
	}
}
