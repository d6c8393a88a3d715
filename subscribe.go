package fishstore

import (
	"context"
	"sync"
	"sync/atomic"

	"fishstore/internal/psf"
	"fishstore/internal/record"
)

// SubscribePolicy selects what happens when a subscriber's channel buffer is
// full at delivery time.
type SubscribePolicy int

const (
	// DropNewest (the default) discards the just-ingested record: slow
	// consumers never stall ingestion and keep the oldest buffered window.
	DropNewest SubscribePolicy = iota
	// DropOldest evicts the oldest buffered record to admit the new one:
	// slow consumers never stall ingestion and keep the freshest window.
	DropOldest
	// Block stalls the ingesting session until the subscriber drains or the
	// subscription is cancelled: lossless, but a stuck consumer becomes
	// ingestion backpressure. Pair it with SubscribeOptions.Context so an
	// abandoned consumer cannot wedge ingestion forever.
	Block
)

// SubscribeOptions configures Subscribe.
type SubscribeOptions struct {
	// Buffer is the delivery-channel capacity (default 64).
	Buffer int
	// Policy is the full-buffer behaviour (default DropNewest).
	Policy SubscribePolicy
	// Context, when non-nil, cancels the subscription when it is done —
	// including waking any Block-policy delivery stalled on the buffer.
	Context context.Context
}

// Subscription delivers records matching a property as they are ingested —
// FishStore's streaming-query hook (§2.3 "Streaming queries"): the
// now-schematized data can be fed to a streaming engine as it arrives.
type Subscription struct {
	store  *Store
	prop   Property
	canon  []byte
	ch     chan Record
	policy SubscribePolicy
	done   chan struct{} // closed by Cancel; wakes Block-policy senders
	drops  atomic.Int64
	once   sync.Once
	closed atomic.Bool
}

// Records is the delivery channel. It is closed by Cancel.
func (sub *Subscription) Records() <-chan Record { return sub.ch }

// Dropped reports how many records were discarded because the subscriber
// fell behind its buffer (under either drop policy; Block never drops).
func (sub *Subscription) Dropped() int64 { return sub.drops.Load() }

// Cancel detaches the subscription and closes its channel.
func (sub *Subscription) Cancel() {
	sub.once.Do(func() {
		sub.closed.Store(true)
		// Wake Block-policy senders first: they hold the subscription set's
		// read lock, which remove needs to take exclusively.
		close(sub.done)
		sub.store.subs.remove(sub)
		close(sub.ch)
	})
}

// subscriptions is the store's active subscription set. The hot path
// (notify) is a single atomic load when no subscriptions exist.
type subscriptions struct {
	count atomic.Int64
	mu    sync.RWMutex
	list  []*Subscription
}

// Subscribe registers a streaming subscription for prop. Under the default
// DropNewest policy a record that finds the buffer full is dropped and
// counted, so slow consumers never stall ingestion.
func (s *Store) Subscribe(prop Property, opts SubscribeOptions) *Subscription {
	buffer := opts.Buffer
	if buffer < 1 {
		buffer = 64
	}
	sub := &Subscription{
		store:  s,
		prop:   prop,
		canon:  psf.CanonicalValue(prop.Value),
		ch:     make(chan Record, buffer),
		policy: opts.Policy,
		done:   make(chan struct{}),
	}
	s.subs.mu.Lock()
	s.subs.list = append(s.subs.list, sub)
	s.subs.mu.Unlock()
	s.subs.count.Add(1)
	if ctx := opts.Context; ctx != nil {
		context.AfterFunc(ctx, sub.Cancel)
	}
	return sub
}

func (subs *subscriptions) remove(sub *Subscription) {
	subs.mu.Lock()
	for i, x := range subs.list {
		if x == sub {
			subs.list = append(subs.list[:i], subs.list[i+1:]...)
			subs.count.Add(-1)
			break
		}
	}
	subs.mu.Unlock()
}

// notify delivers a just-ingested record to matching subscriptions. Called
// with the record's pointer specs so property values need not be
// re-evaluated.
func (subs *subscriptions) notify(s *Store, addr uint64, view record.View,
	specs []record.PointerSpec, payload []byte, valueRegion []byte) {
	if subs.count.Load() == 0 {
		return
	}
	subs.mu.RLock()
	defer subs.mu.RUnlock()
	for _, sub := range subs.list {
		if sub.closed.Load() {
			continue
		}
		for _, ps := range specs {
			if ps.PSFID != sub.prop.PSF {
				continue
			}
			if !specMatchesCanon(ps, payload, valueRegion, sub.canon) {
				continue
			}
			rec := Record{Address: addr, Payload: append([]byte(nil), payload...)}
			sub.deliver(s, rec)
			break
		}
	}
}

// deliver sends rec per the subscription's policy. It runs under the
// subscription set's read lock, which is what makes the channel operations
// safe against a concurrent Cancel: close(ch) happens only after remove has
// taken the write lock, i.e. strictly after every in-flight deliver.
func (sub *Subscription) deliver(s *Store, rec Record) {
	select {
	case sub.ch <- rec:
		return
	default:
	}
	switch sub.policy {
	case DropOldest:
		select {
		case <-sub.ch: // evict the oldest buffered record
			sub.noteDrop(s)
		default: // the consumer drained concurrently; nothing to evict
		}
		select {
		case sub.ch <- rec:
		default:
			sub.noteDrop(s) // lost the slot race to another ingesting session
		}
	case Block:
		select {
		case sub.ch <- rec:
		case <-sub.done: // cancelled mid-stall; the record is moot
		}
	default: // DropNewest
		sub.noteDrop(s)
	}
}

func (sub *Subscription) noteDrop(s *Store) {
	sub.drops.Add(1)
	s.metrics.subDropped.Inc()
}

// specMatchesCanon compares a pointer spec's value bytes with a canonical
// property value.
func specMatchesCanon(ps record.PointerSpec, payload, valueRegion, canon []byte) bool {
	switch ps.Mode {
	case record.ModeBool:
		want := byte('f')
		if ps.BoolValue {
			want = 't'
		}
		return len(canon) == 1 && canon[0] == want
	case record.ModePayload:
		if ps.ValOffset+ps.ValSize > len(payload) {
			return false
		}
		return string(payload[ps.ValOffset:ps.ValOffset+ps.ValSize]) == string(canon)
	case record.ModeValueRegion:
		if ps.ValOffset+ps.ValSize > len(valueRegion) {
			return false
		}
		return string(valueRegion[ps.ValOffset:ps.ValOffset+ps.ValSize]) == string(canon)
	}
	return false
}
