// Package fasterkv is a FASTER-style concurrent point key-value store
// (Chandramouli et al., SIGMOD 2018): the latch-free hash index of
// internal/hashtable over the append-only hybrid log of internal/hlog, with
// one hash chain per key and newest-version-wins reads.
//
// It exists as the substrate for the paper's FASTER-RJ baseline (§8.1):
// parse a primary key out of each raw record and upsert the raw record
// under it. It is a blind key-value store — unlike FishStore it knows
// nothing about record contents, supports only point operations, and keeps
// exactly one chain per key.
package fasterkv

import (
	"bytes"
	"fmt"

	"fishstore/internal/epoch"
	"fishstore/internal/hashtable"
	"fishstore/internal/hlog"
	"fishstore/internal/record"
	"fishstore/internal/storage"
)

// Options configures a Store.
type Options struct {
	PageBits     uint
	MemPages     int
	TableBuckets int
	Device       storage.Device
}

// Store is the key-value store. Use sessions for all data operations.
type Store struct {
	epoch *epoch.Manager
	log   *hlog.Log
	table *hashtable.Table
}

// Open creates a store.
func Open(opts Options) (*Store, error) {
	if opts.PageBits == 0 {
		opts.PageBits = 20
	}
	if opts.MemPages == 0 {
		opts.MemPages = 16
	}
	if opts.TableBuckets == 0 {
		opts.TableBuckets = 1 << 16
	}
	em := epoch.New()
	log, err := hlog.New(hlog.Config{
		PageBits: opts.PageBits,
		MemPages: opts.MemPages,
		Device:   opts.Device,
		Epoch:    em,
	})
	if err != nil {
		return nil, err
	}
	return &Store{
		epoch: em,
		log:   log,
		table: hashtable.New(opts.TableBuckets, opts.TableBuckets/4+64),
	}, nil
}

// Close flushes and closes the log.
func (s *Store) Close() error { return s.log.Close() }

// TailAddress returns the log tail.
func (s *Store) TailAddress() uint64 { return s.log.TailAddress() }

// Session is a worker's handle; not safe for concurrent use.
type Session struct {
	s *Store
	g *epoch.Guard
}

// NewSession registers a worker.
func (s *Store) NewSession() *Session {
	g := s.epoch.Acquire()
	g.Unprotect()
	return &Session{s: s, g: g}
}

// Close releases the session.
func (sess *Session) Close() { sess.g.Release() }

// Record layout: the key lives in the record's value region, the value is
// the payload, and a single ModeValueRegion key pointer carries the chain.
const keyPSF = 0

// Upsert writes key -> value. The new version becomes the chain head; old
// versions further down the chain are ignored by Read.
func (sess *Session) Upsert(key, value []byte) error {
	sess.g.Protect()
	defer sess.g.Unprotect()

	spec := record.Spec{
		Payload:     value,
		ValueRegion: key,
		Pointers: []record.PointerSpec{{
			PSFID: keyPSF, Mode: record.ModeValueRegion, ValOffset: 0, ValSize: len(key),
		}},
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	alloc, err := sess.s.log.Allocate(sess.g, spec.SizeWords())
	if err != nil {
		return err
	}
	spec.Write(alloc.Words)
	view := record.View{Words: alloc.Words}
	wi := view.PointerWordIndex(0)
	kptAddr := alloc.Address + uint64(wi)*8

	h := hashtable.HashProperty(keyPSF, key)
	slot, err := sess.s.table.FindOrCreate(h)
	if err != nil {
		return err
	}
	// Point KV: the newest record must be the head; every insert simply
	// CASes the entry, retrying with the refreshed prev on failure (there
	// is no multi-chain splice problem with a single key pointer that must
	// be newest).
	for {
		entryWord := slot.Load()
		record.SetPrevAddress(&view.Words[wi], hashtable.Unpack(entryWord).Address)
		if slot.CompareAndSwapAddress(entryWord, kptAddr) {
			break
		}
	}
	view.SetVisible()
	return nil
}

// Read returns the newest value for key, searching the in-memory portion of
// the chain and falling back to storage reads for older data.
func (sess *Session) Read(key []byte) ([]byte, bool, error) {
	sess.g.Protect()
	defer sess.g.Unprotect()

	h := hashtable.HashProperty(keyPSF, key)
	slot, ok := sess.s.table.FindEntry(h)
	if !ok {
		return nil, false, nil
	}
	log := sess.s.log
	pageWords := int(log.PageSize() / 8)
	for cur := slot.Address(); cur != 0; {
		var view record.View
		if cur >= log.HeadAddress() {
			// These words alias the live page frame: the key-pointer word
			// is CASed by concurrent Upserts splicing the chain, and the
			// header word is rewritten by SetVisible after publication;
			// Resolve loads both atomically.
			k := int(log.OffsetOf(cur) / 8)
			view, _, ok = record.Resolve(log.WordsAt(cur-uint64(k)*8, pageWords), k)
		} else {
			// On-device data below HeadAddress is immutable, so the reads
			// need no epoch protection — and must not hold it: a pinned
			// safe epoch stalls page-frame recycling for every worker.
			var err error
			sess.g.Unprotect()
			view, _, ok, err = record.ResolveRead(log.ReadWordsFromDevice, cur, pageWords)
			sess.g.Protect()
			if err != nil {
				return nil, false, err
			}
		}
		if !ok {
			return nil, false, fmt.Errorf("fasterkv: chain link %d does not land on a key pointer", cur)
		}
		kp := view.KeyPointerAt(0)
		if view.Header().Visible() && bytes.Equal(view.ValueBytes(kp), key) {
			return view.AppendPayload(nil), true, nil
		}
		cur = kp.PrevAddress()
	}
	return nil, false, nil
}
