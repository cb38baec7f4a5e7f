package locks

import (
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/waiter"
)

// ABQLock is Anderson's array-based queue lock [5, 6]: a ticket lock
// whose waiters each spin on a private slot of a per-lock array,
// giving FIFO admission with local spinning. Its drawbacks — the
// reason §5 excludes this family for general-purpose use — are the
// T*L space footprint and the fixed capacity: the maximum number of
// simultaneous participants must be known when the lock is created.
type ABQLock struct {
	slots []struct {
		flag atomic.Uint32
		_    [pad.SectorSize - 4]byte
	}
	ticket atomic.Uint64
	// self is the owner's slot index (acquire-to-release context,
	// owner-owned).
	self uint64
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// NewABQL creates a lock supporting at most capacity simultaneous
// participants (holders plus waiters), waiting on c (nil = wall
// clock).
func NewABQL(capacity int, c Clock) *ABQLock {
	if capacity < 1 {
		panic("locks: ABQL capacity must be positive")
	}
	l := &ABQLock{Clk: c}
	l.slots = make([]struct {
		flag atomic.Uint32
		_    [pad.SectorSize - 4]byte
	}, capacity)
	l.slots[0].flag.Store(1) // slot 0 starts granted
	return l
}

// Lock acquires l. More than cap simultaneous participants is a usage
// error and corrupts the queue, exactly as with the original.
func (l *ABQLock) Lock() {
	tx := l.ticket.Add(1) - 1
	idx := tx % uint64(len(l.slots))
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	for l.slots[idx].flag.Load() == 0 {
		w.Pause()
	}
	l.slots[idx].flag.Store(0) // consume the grant for the next lap
	l.self = idx
}

// TryLock attempts a non-blocking acquire. Soundness: a posted grant
// in slot ticket%cap can only belong to ticket itself — a stale-lap
// coincidence would require more than Capacity simultaneous
// participants, which is excluded by the lock's usage contract — so
// observing flag==1 for the current ticket value and then winning the
// ticket CAS proves the lock was free and hands us that grant. Racing
// TryLocks are serialized by the CAS; the loser never touches the
// slot.
func (l *ABQLock) TryLock() bool {
	t := l.ticket.Load()
	idx := t % uint64(len(l.slots))
	if l.slots[idx].flag.Load() == 0 {
		return false
	}
	if !l.ticket.CompareAndSwap(t, t+1) {
		return false
	}
	l.slots[idx].flag.Store(0)
	l.self = idx
	return true
}

// Unlock releases l, granting the next slot.
func (l *ABQLock) Unlock() {
	next := (l.self + 1) % uint64(len(l.slots))
	l.slots[next].flag.Store(1)
}

// Capacity reports the maximum supported participants.
func (l *ABQLock) Capacity() int { return len(l.slots) }
