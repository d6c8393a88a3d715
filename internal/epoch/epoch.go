// Package epoch implements the epoch-based synchronization framework that
// FishStore inherits from FASTER (Chandramouli et al., SIGMOD 2018).
//
// A shared atomic counter E (the current epoch) may be incremented by any
// thread. Every participating worker owns a slot in a fixed table and
// periodically copies E into its slot ("refreshing"). Epoch c is *safe* once
// every active worker's local epoch exceeds c: at that point all workers are
// guaranteed to have observed every global change published at or before c.
// Trigger actions registered with BumpWith run exactly once, as soon as
// their epoch becomes safe.
//
// FishStore uses this framework for (1) propagating PSF registration changes
// to ingestion workers, (2) computing safe registration/deregistration log
// boundaries, and (3) protecting readers of the in-memory circular buffer
// while the head offset advances.
package epoch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fishstore/internal/metrics"
)

// MaxWorkers is the size of the epoch table. Slots are recycled when a
// Guard is released, so this bounds concurrent participants, not total ones.
const MaxWorkers = 256

// unprotected marks a table slot whose owner is not currently inside a
// protected region; such slots do not hold back the safe epoch.
const unprotected = ^uint64(0)

const drainListCapacity = 512

// entry is a single padded slot of the epoch table.
type entry struct {
	local atomic.Uint64
	_     [7]uint64 // pad to a cache line to avoid false sharing
}

// action is a trigger function that becomes runnable once its epoch is safe.
type action struct {
	epoch uint64
	fn    func()
}

// Manager is an instance of the epoch protection framework. The zero value
// is not usable; call New.
type Manager struct {
	current atomic.Uint64
	safe    atomic.Uint64

	table [MaxWorkers]entry

	// freeSlots hands out table indices to Guards.
	freeSlots chan int

	// drain holds pending trigger actions, protected by mu. A sync.Mutex
	// here is acceptable: bumps are rare (PSF registration, page frame
	// recycling), while Protect/Refresh on the hot path are lock-free.
	mu      sync.Mutex
	drain   []action
	pending atomic.Int64

	// Instrumentation, set once via Instrument before concurrent use. The
	// metric handles are nil-safe, so uninstrumented managers pay only a nil
	// check on the drain path and nothing on Protect/Refresh.
	bumps      *metrics.Counter
	actionsRun *metrics.Counter
	onDrain    func(ran int)
}

// Instrument attaches counters for epoch bumps and executed trigger actions,
// and an optional callback invoked after each drain that ran at least one
// action. Must be called before the manager is used concurrently.
func (m *Manager) Instrument(bumps, actionsRun *metrics.Counter, onDrain func(ran int)) {
	m.bumps = bumps
	m.actionsRun = actionsRun
	m.onDrain = onDrain
}

// New creates an epoch manager. The current epoch starts at 1 so that 0 can
// mean "never".
func New() *Manager {
	m := &Manager{freeSlots: make(chan int, MaxWorkers)}
	m.current.Store(1)
	for i := 0; i < MaxWorkers; i++ {
		m.table[i].local.Store(unprotected)
		m.freeSlots <- i
	}
	return m
}

// Current returns the current global epoch.
func (m *Manager) Current() uint64 { return m.current.Load() }

// Guard is a worker's handle on the epoch table. A Guard is owned by a
// single goroutine; its methods must not be called concurrently.
type Guard struct {
	m    *Manager
	slot int
}

// Acquire claims an epoch table slot for the calling goroutine. It blocks if
// all MaxWorkers slots are in use.
func (m *Manager) Acquire() *Guard {
	slot := <-m.freeSlots
	g := &Guard{m: m, slot: slot}
	g.Protect()
	return g
}

// LiveGuards reports how many guards are currently acquired: table slots
// handed out by Acquire and not yet Released. Leak checks (the fault
// runner, cancellation tests) assert this returns to zero once every
// session and scan is done.
func (m *Manager) LiveGuards() int { return MaxWorkers - len(m.freeSlots) }

// ProtectedSlots reports how many slots are currently inside a protected
// region (pinning the safe epoch). A cancelled operation that forgot to
// Unprotect shows up here long after its goroutine has exited.
func (m *Manager) ProtectedSlots() int {
	n := 0
	for i := 0; i < MaxWorkers; i++ {
		if m.table[i].local.Load() != unprotected {
			n++
		}
	}
	return n
}

// Release returns the Guard's slot to the manager. The Guard must not be
// used afterwards.
func (g *Guard) Release() {
	g.Unprotect()
	// Give pending actions a chance to run even if no other worker is active.
	g.m.tryDrain(g.m.computeSafe())
	g.m.freeSlots <- g.slot
	g.m = nil
}

// Protect enters a protected region: the worker publishes the current epoch
// to its slot, pinning the safe epoch at or below it until Unprotect or the
// next Refresh.
func (g *Guard) Protect() {
	g.m.table[g.slot].local.Store(g.m.current.Load())
}

// Unprotect leaves the protected region.
func (g *Guard) Unprotect() {
	g.m.table[g.slot].local.Store(unprotected)
}

// Refresh re-reads the global epoch into the worker's slot and drains any
// trigger actions that have become safe. Workers call this periodically
// (e.g., once per ingested batch).
func (g *Guard) Refresh() {
	m := g.m
	cur := m.current.Load()
	g.m.table[g.slot].local.Store(cur)
	safe := m.computeSafe()
	m.tryDrain(safe)
}

// Epoch returns the epoch the guard last published by Protect or Refresh.
func (g *Guard) Epoch() uint64 { return g.m.table[g.slot].local.Load() }

// IsProtected reports whether the guard is currently inside a protected
// region. Exposed for tests and assertions.
func (g *Guard) IsProtected() bool {
	return g.m.table[g.slot].local.Load() != unprotected
}

// Bump atomically increments the current epoch and returns the previous
// value. Changes published before Bump are observed by all workers once the
// returned epoch becomes safe.
func (m *Manager) Bump() uint64 {
	m.bumps.Inc()
	return m.current.Add(1) - 1
}

// BumpWith increments the current epoch and registers fn to run exactly once
// when the *previous* epoch becomes safe (i.e., when every worker has
// observed the new epoch). It returns the new current epoch.
func (m *Manager) BumpWith(fn func()) uint64 {
	m.bumps.Inc()
	m.mu.Lock()
	prev := m.current.Add(1) - 1
	m.drain = append(m.drain, action{epoch: prev, fn: fn})
	m.pending.Add(1)
	m.mu.Unlock()
	// The bumping thread may itself be the only participant; try now.
	m.tryDrain(m.computeSafe())
	return prev + 1
}

// SafeEpoch recomputes and returns the current safe epoch: the largest epoch
// e such that every protected worker's local epoch is > e is unnecessary to
// phrase that way — concretely it is min(local epochs)-1, or current-1 when
// no worker is protected.
func (m *Manager) SafeEpoch() uint64 {
	return m.computeSafe()
}

func (m *Manager) computeSafe() uint64 {
	min := m.current.Load()
	for i := 0; i < MaxWorkers; i++ {
		e := m.table[i].local.Load()
		if e != unprotected && e < min {
			min = e
		}
	}
	// Every worker is at epoch >= min, so min-1 is safe.
	safe := min - 1
	// Publish monotonically.
	for {
		old := m.safe.Load()
		if safe <= old {
			return old
		}
		if m.safe.CompareAndSwap(old, safe) {
			return safe
		}
	}
}

// tryDrain runs all pending actions whose epoch is <= safe.
func (m *Manager) tryDrain(safe uint64) {
	if m.pending.Load() == 0 {
		return
	}
	var runnable []func()
	m.mu.Lock()
	kept := m.drain[:0]
	for _, a := range m.drain {
		if a.epoch <= safe {
			runnable = append(runnable, a.fn)
		} else {
			kept = append(kept, a)
		}
	}
	m.drain = kept
	m.pending.Store(int64(len(kept)))
	m.mu.Unlock()
	for _, fn := range runnable {
		fn()
	}
	if len(runnable) > 0 {
		m.actionsRun.Add(int64(len(runnable)))
		if m.onDrain != nil {
			m.onDrain(len(runnable))
		}
	}
}

// WaitForSafe blocks until epoch e is safe, refreshing on behalf of the
// caller. It must NOT be called while holding a protected Guard on the hot
// path of the same epoch (that would deadlock conceptually); it is meant for
// control-plane operations such as PSF registration.
func (m *Manager) WaitForSafe(e uint64) {
	for i := 0; ; i++ {
		if m.computeSafe() >= e {
			m.tryDrain(m.computeSafe())
			return
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

// DrainPending reports the number of registered-but-not-yet-run actions.
func (m *Manager) DrainPending() int { return int(m.pending.Load()) }

// Drain runs any trigger actions whose epoch has already become safe. It
// never blocks; use it from control-plane wait loops that do not own a
// Guard.
func (m *Manager) Drain() { m.tryDrain(m.computeSafe()) }

func (g *Guard) String() string {
	return fmt.Sprintf("epoch.Guard{slot:%d local:%d}", g.slot, g.m.table[g.slot].local.Load())
}
