package fishstore

import (
	"errors"
	"fmt"
	"io"

	"fishstore/internal/hashtable"
	"fishstore/internal/hlog"
	"fishstore/internal/record"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
	"fishstore/internal/wordio"
)

// This file implements the fsck-style log verifier (and the durable-end
// probe recovery is built on): a single-pass walk over the on-device record
// layout that validates every header, key-pointer region, and hash chain,
// reporting the first corruption with its address. Appendix E of the paper
// claims a fuzzy checkpoint plus single-pass suffix replay restores the
// store after a crash; the verifier is the executable form of that claim.

// Corruption describes the first integrity violation a verifier found.
type Corruption struct {
	// Address is the log address of the corrupt structure.
	Address uint64
	// Kind classifies the violation (e.g. "record", "dangling-pointer",
	// "chain-forward-link", "truncated-log").
	Kind string
	// Detail is a human-readable description.
	Detail string
}

func (c Corruption) String() string {
	return fmt.Sprintf("%s at %d: %s", c.Kind, c.Address, c.Detail)
}

// VerifyReport summarizes a verification pass.
type VerifyReport struct {
	// From/To is the requested region; End is where the record walk stopped.
	From, To, End uint64
	// Records, Fillers, KeyPointers count the structures walked.
	Records, Fillers, KeyPointers int64
	// SealedRecords counts format-v1 records whose checksum trailer was
	// verified; UncheckedRecords counts v0 (pre-checksum) records, which
	// carry nothing to verify.
	SealedRecords, UncheckedRecords int64
	// ChainsWalked / ChainLinks count the hash-chain phase (store verify
	// only; zero for device-level verification).
	ChainsWalked, ChainLinks int64
	// Corruption is the first violation found, or nil if the log is clean.
	Corruption *Corruption
}

// OK reports whether verification found no corruption.
func (r VerifyReport) OK() bool { return r.Corruption == nil }

// walkDeviceLog walks the record layout on dev from `from`, a record.Cursor
// per page, validating every record, and calls visit (if non-nil) for each
// valid one (fillers included). It returns the first address not covered by
// a valid record, plus a non-empty `why` when the walk stopped on a
// violation: a zero-size or overrun stop, a record that fails validation, or
// an invisible one whose seal verifies once visible. Any other stop or
// invisible record (the durable frontier), reaching `to` (0 is unbounded) or
// visit returning false is a clean end. Real device I/O errors are returned
// as err; end-of-device (io.EOF) is a clean end — recovery must never
// mistake a transient read fault for the log's end.
func walkDeviceLog(dev storage.Device, pageBits uint, from, to uint64,
	visit func(addr uint64, h record.Header, v record.View) bool) (end uint64, why string, pages int, err error) {

	pageSize := uint64(1) << pageBits
	words := make([]uint64, pageSize/8)
	buf := wordio.Bytes(words)
	addr := from
	for to == 0 || addr < to {
		pageStart := addr &^ (pageSize - 1)
		n, rerr := dev.ReadAt(buf, int64(pageStart))
		if rerr != nil && !errors.Is(rerr, io.EOF) && !errors.Is(rerr, io.ErrUnexpectedEOF) {
			return addr, "", pages, fmt.Errorf("fishstore: log read at %d: %w", pageStart, rerr)
		}
		pages++
		off := int(addr-pageStart) / 8
		c := record.NewCursor(words[off:], addr, n/8-off, to)
		for {
			recAddr, v, ok := c.Next()
			if !ok {
				switch c.Stop() {
				case record.StopZeroSize:
					return recAddr, "nonzero header word with zero record size", pages, nil
				case record.StopOverrun:
					size := record.Header(words[(recAddr-pageStart)/8]).SizeWords() * 8
					return recAddr, fmt.Sprintf("record of %d bytes overruns its page", size), pages, nil
				case record.StopLimit:
					addr = recAddr // the page's end, or `to`
				default:
					return recAddr, "", pages, nil // unwritten or not fully durable: end of log
				}
				break
			}
			h := v.Header()
			if !h.Filler() && !h.Visible() {
				if v.LostVisibleBit() {
					return recAddr, "sealed record lost its visible bit", pages, nil
				}
				return recAddr, "", pages, nil // incomplete record at the frontier
			}
			if !h.Filler() {
				if reason := validateRecord(recAddr, v); reason != "" {
					return recAddr, reason, pages, nil
				}
				if !v.ChecksumOK() {
					// A v1 record whose body does not match its sealed
					// trailer: a torn flush zeroed part of the payload, or
					// the media flipped bits. Recovery truncates here.
					return recAddr, "record checksum mismatch (torn or corrupt payload)", pages, nil
				}
			}
			if visit != nil && !visit(recAddr, h, v) {
				return recAddr, "", pages, nil
			}
		}
	}
	return addr, "", pages, nil
}

// validateRecord deep-checks a record's internal layout: region sizes, key
// pointer back-offsets (which a torn write zeroes), pointer modes, value
// bounds, and the no-forward-link invariant. Returns "" when consistent.
//
// Reasons are constant strings: this also runs per record on the
// VerifyOnRead quarantine path, where a fmt.Sprintf per rejected record
// boxes its operands on the heap (hotalloc). The record's address is
// reported by every caller, and the specific bad values are recoverable
// from the record image at that address.
func validateRecord(addr uint64, v record.View) string {
	h := v.Header()
	numPtrs, valueBytes := h.NumPtrs(), h.ValueWords()*8
	first := record.HeaderWords + numPtrs*record.WordsPerPointer + h.ValueWords()
	if first+h.TrailerWords() > h.SizeWords() {
		return "pointer/value/trailer regions exceed record size"
	}
	payloadLen := (h.SizeWords()-h.TrailerWords()-first)*8 - h.PayloadPad()
	if payloadLen < 0 {
		return "payload padding exceeds payload region"
	}
	if h.Indirect() && payloadLen != 8 {
		return "indirect record payload is not a single address"
	}
	for i := 0; i < numPtrs; i++ {
		w := v.PointerWordIndex(i)
		kp := v.KeyPointerAt(i)
		if kp.Mode() > record.ModeValueRegion {
			return "key pointer: invalid mode"
		}
		if kp.OffsetWords() != w {
			return "key pointer: back-offset does not match position (torn write?)"
		}
		kptAddr := addr + uint64(w)*8
		if p := kp.PrevAddress(); p != 0 {
			if p >= kptAddr {
				return "key pointer: forward link"
			}
			if p < hlog.BeginAddress || p%8 != 0 {
				return "key pointer: implausible prev address"
			}
		}
		switch kp.Mode() {
		case record.ModePayload:
			if kp.ValOffset()+kp.ValSize() > payloadLen {
				return "key pointer: value outside payload"
			}
		case record.ModeValueRegion:
			if kp.ValOffset()+kp.ValSize() > valueBytes {
				return "key pointer: value outside value region"
			}
		}
	}
	return ""
}

// verifyImage walks [from, to) on the device, validating records and the
// pointer graph, and returns the key-pointer addresses seen (for the chain
// phase), each mapped to whether its record is valid and so must be on a
// chain. Prev links pointing at or above `from` must land on a previously
// seen key pointer; links below `from` cannot be checked (the walk did not
// cover them) and are accepted.
func verifyImage(dev storage.Device, pageBits uint, from, to uint64) (VerifyReport, map[uint64]bool, error) {
	rep := VerifyReport{From: from, To: to}
	seen := make(map[uint64]bool)
	var corrupt *Corruption
	end, why, _, err := walkDeviceLog(dev, pageBits, from, to,
		func(addr uint64, h record.Header, v record.View) bool {
			if h.Filler() {
				rep.Fillers++
				return true
			}
			rep.Records++
			if h.Checksum() {
				rep.SealedRecords++ // walkDeviceLog already verified it
			} else {
				rep.UncheckedRecords++
			}
			for i := 0; i < h.NumPtrs(); i++ {
				kptAddr := addr + uint64(v.PointerWordIndex(i))*8
				kp := v.KeyPointerAt(i)
				rep.KeyPointers++
				if p := kp.PrevAddress(); p >= from && p != 0 {
					if _, ok := seen[p]; !ok {
						corrupt = &Corruption{
							Address: kptAddr,
							Kind:    "dangling-pointer",
							Detail:  fmt.Sprintf("prev link %d is not a key pointer address", p),
						}
						return false
					}
				}
				seen[kptAddr] = !h.Invalid()
			}
			return true
		})
	rep.End = end
	if err != nil {
		return rep, seen, err
	}
	switch {
	case corrupt != nil:
		rep.Corruption = corrupt
	case why != "":
		rep.Corruption = &Corruption{Address: end, Kind: "record", Detail: why}
	case to != 0 && end < to:
		rep.Corruption = &Corruption{
			Address: end,
			Kind:    "truncated-log",
			Detail:  fmt.Sprintf("valid records end at %d, expected durable through %d", end, to),
		}
	}
	return rep, seen, nil
}

// VerifyDevice fsck-walks a log image directly on a storage device without
// opening a store: every record header, key-pointer region, and prev link in
// [from, to) is validated, and the first corruption is reported with its
// address. from of 0 means the log's begin address; to of 0 walks until the
// durable end (useful without a manifest, but unable to distinguish a torn
// tail from the true end — pass the checkpoint manifest's Tail as `to` to
// detect truncation). fishstore-cli's `verify` subcommand wraps this.
func VerifyDevice(dev storage.Device, pageBits uint, from, to uint64) (VerifyReport, error) {
	if pageBits < 12 || pageBits > 30 {
		return VerifyReport{}, fmt.Errorf("fishstore: verify PageBits %d out of range [12,30]", pageBits)
	}
	if from == 0 {
		from = hlog.BeginAddress
	}
	rep, _, err := verifyImage(dev, pageBits, from, to)
	return rep, err
}

// VerifyOptions configures VerifyLog.
type VerifyOptions struct {
	// From / To bound the verified region. Zero means from the truncation
	// point to the durable boundary: the durable, non-truncated portion of
	// the log.
	From, To uint64
	// SkipChains skips the hash-chain phase (the sequential record walk
	// plus pointer-graph check only). The chain phase holds the checkpoint
	// barrier and keeps one address per key pointer in memory.
	SkipChains bool
}

// VerifyLog verifies the store's own durable log image and its subset hash
// index: (1) a sequential walk validating every record and key-pointer
// region on the device, (2) a pointer-graph check that every prev link lands
// on a real key pointer at a lower address (no forward links, no dangling
// pointers), and (3) a walk of every hash chain from its table head,
// asserting strictly descending, non-dangling links down to the chain floor,
// each link's property hashing to the chain it is on, and every valid
// record's key pointers reached — so a flipped prev address or pointer value
// cannot leave the index silently short.
// The chain phase briefly holds the checkpoint barrier so ingestion cannot
// move chain heads mid-walk. The log device must support reads (not Null).
func (s *Store) VerifyLog(opts VerifyOptions) (VerifyReport, error) {
	from := opts.From
	if from == 0 {
		from = s.logBegin()
	}
	to := opts.To
	if to == 0 {
		to = s.log.FlushedUntil()
	}
	rep, seen, err := verifyImage(s.log.Device(), s.opts.PageBits, from, to)
	if err != nil || rep.Corruption != nil || opts.SkipChains {
		s.reportCorruption(rep.Corruption)
		return rep, err
	}

	// Chain phase: quiesce ingestion (chain heads must not move) and walk
	// every chain through the same resolution path index scans use.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	g := s.epoch.Acquire()
	defer g.Release()
	var st ScanStats // chain-walk I/O accounting, discarded
	var corrupt *Corruption
	s.table.Range(func(_ uint64, e hashtable.Entry, slot hashtable.Slot) bool {
		head := e.Address
		if head == 0 {
			return true
		}
		rep.ChainsWalked++
		lowest := ^uint64(0)
		// Links below `from` terminate the walk (the chain floor): records
		// below a truncation point are gone and cannot be checked.
		werr := s.forEachChainLink(nil, g, head, from, false, nil, &st,
			func(kptAddr uint64, view record.View, base uint64, kp record.KeyPointer) bool {
				if kptAddr >= lowest {
					corrupt = &Corruption{
						Address: kptAddr,
						Kind:    "chain-forward-link",
						Detail:  fmt.Sprintf("chain link %d does not descend (previous link %d)", kptAddr, lowest),
					}
					return false
				}
				lowest = kptAddr
				if kptAddr < to {
					if _, ok := seen[kptAddr]; !ok {
						corrupt = &Corruption{
							Address: kptAddr,
							Kind:    "dangling-chain-link",
							Detail:  "chain passes through an address that holds no key pointer",
						}
						return false
					}
					seen[kptAddr] = false // reached
				}
				if on, ok := s.table.FindEntry(s.chainHash(kp, view, base)); !ok || on != slot {
					corrupt = &Corruption{
						Address: kptAddr,
						Kind:    "chain-membership",
						Detail:  "key pointer's property hashes to another chain",
					}
					return false
				}
				rep.ChainLinks++
				return true
			})
		if werr != nil && corrupt == nil {
			corrupt = &Corruption{Address: head, Kind: "chain-io", Detail: werr.Error()}
		}
		return corrupt == nil
	})
	if corrupt == nil {
		lost := ^uint64(0)
		for kptAddr, must := range seen {
			if must && kptAddr < lost {
				lost = kptAddr
			}
		}
		if lost != ^uint64(0) {
			corrupt = &Corruption{
				Address: lost,
				Kind:    "unreachable-key-pointer",
				Detail:  "no hash chain reaches this key pointer of a valid record",
			}
		}
	}
	rep.Corruption = corrupt
	s.reportCorruption(rep.Corruption)
	return rep, nil
}

// reportCorruption emits the corruption as a trace event, so the flight
// recorder (/debug/fishstore/flight) and the TraceSink hold the events
// leading up to the first detected integrity violation.
func (s *Store) reportCorruption(c *Corruption) {
	if c == nil {
		return
	}
	s.metrics.event("verify.corruption",
		trace.Uint("address", c.Address), trace.Str("kind", c.Kind), trace.Str("detail", c.Detail))
}
