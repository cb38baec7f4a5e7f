package locks

import (
	"sync/atomic"

	"repro/internal/waiter"
	"repro/internal/xrand"
)

// twaTableSize is the size of the process-global waiting array shared
// by all TWA lock instances and threads; the paper's implementation
// uses 4096 words (§6 "Space Complexity").
const twaTableSize = 4096

// twaTable is the global waiting array. Slots hold modification
// counters: long-term waiters snapshot their hashed slot and spin
// until it changes, at which point they revert to classic short-term
// spinning on the grant word.
var twaTable [twaTableSize]struct {
	seq atomic.Uint64
	_   [56]byte // one slot per cache line
}

// twaIDSource assigns per-lock identities for hash mixing.
var twaIDSource atomic.Uint64

// twaSlot hashes a (lock identity, ticket) pair into the waiting
// array, mixing with the Fibonacci hash the paper attributes much of
// TWA's path complexity to.
func twaSlot(id, ticket uint64) *atomic.Uint64 {
	h := (id ^ ticket) * 0x9e3779b97f4a7c15
	return &twaTable[(h>>52)&(twaTableSize-1)].seq
}

// TWALock is a ticket lock augmented with a waiting array (Dice &
// Kogan, Euro-Par 2019). Threads whose ticket is far from the grant
// cursor wait on a hashed slot of the global array rather than on the
// grant word, so at any instant at most one thread (distance 1) spins
// globally; the releasing thread bumps the slot of the ticket that
// should move from long-term to short-term waiting. Collisions in the
// array only cause spurious re-checks, never missed wakeups, because
// waiters re-validate the grant distance after every slot change.
//
// The zero value is an unlocked lock.
type TWALock struct {
	ticket atomic.Uint64
	grant  atomic.Uint64
	id     atomic.Uint64
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// longTermThreshold is the grant distance at or beyond which a waiter
// parks on the waiting array. 1 matches the paper: only the immediate
// successor spins on grant.
const longTermThreshold = 1

func (l *TWALock) lockID() uint64 {
	if id := l.id.Load(); id != 0 {
		return id
	}
	// First use: assign a process-unique identity (racy CAS; the
	// loser adopts the winner's value).
	next := xrand.HashPhi32(uint32(twaIDSource.Add(1)))
	l.id.CompareAndSwap(0, uint64(next)|1) // |1 keeps it nonzero
	return l.id.Load()
}

// Lock acquires l.
func (l *TWALock) Lock() {
	tx := l.ticket.Add(1) - 1
	if tx == l.grant.Load() {
		// Uncontended: granted immediately, no waiter state needed.
		return
	}
	id := l.lockID()
	w := waiter.New(l.Clk)
	for {
		dist := tx - l.grant.Load()
		if dist == 0 {
			return
		}
		if dist <= longTermThreshold {
			// Short-term: classic global spinning on grant.
			w.Pause()
			continue
		}
		// Long-term: wait on the hashed slot until it changes, then
		// re-validate the distance. The releaser bumps our slot when
		// our ticket enters short-term range.
		slot := twaSlot(id, tx)
		s := slot.Load()
		for slot.Load() == s && tx-l.grant.Load() > longTermThreshold {
			w.Pause()
		}
	}
}

// Unlock releases l and promotes the next long-term waiter.
func (l *TWALock) Unlock() {
	g := l.grant.Load() + 1
	l.grant.Store(g)
	// The thread holding ticket g+longTermThreshold (if any) may now
	// move from the waiting array to grant spinning.
	twaSlot(l.lockID(), g+longTermThreshold).Add(1)
}

// TryLock attempts a non-blocking acquire.
func (l *TWALock) TryLock() bool {
	g := l.grant.Load()
	return l.ticket.CompareAndSwap(g, g+1)
}
