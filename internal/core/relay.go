package core

import (
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/waiter"
)

// RelayLock is the Listing 3 (Appendix F) "Relay" variant. Arrival
// uses a double swap: a thread that finds the lock free immediately
// exchanges LOCKEDEMPTY back into the arrival word to try to extract
// its own element from the stack. If other threads raced into the
// window between the two swaps, the second swap detached them as a
// fresh entry segment; the owner then abdicates, relaying ownership
// directly to the head of that segment, and joins the waiters itself.
//
// The variant needs no end-of-segment marker at all — the racing
// thread's element is a live waiter, not a zombie, and terminates the
// chain naturally — at the cost of losing the constant-time doorway
// when the (rare) race fires, since ownership must pass through the
// victim.
//
// The zero value is an unlocked lock ready for use.
type RelayLock struct {
	arrivals atomic.Pointer[flagElement]
	_        [pad.SectorSize - 8]byte

	succ *flagElement
	cur  *flagElement

	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Acquire enters the lock and returns the successor context for
// Release.
func (l *RelayLock) Acquire(e *flagElement) *flagElement {
	e.gate.Store(0)
	tail := l.arrivals.Swap(e)
	if tail == nil {
		// Fast path: we hold the lock. Try to reclaim our element by
		// swapping LOCKEDEMPTY over it.
		r := l.arrivals.Swap(nemo())
		if r == e {
			return nil // clean uncontended acquire
		}
		// Threads arrived in the swap-swap window; r heads a detached
		// segment with our element buried at its distal end. Cede
		// ownership to r and fall through into waiting: natural
		// succession through the segment will reach our element.
		r.gate.Store(1)
		// tail was nil, so our successor is nil: we are the natural
		// end of the detached segment.
	}
	succ := tail
	if succ == nemo() {
		succ = nil
	}
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	for e.gate.Load() == 0 {
		w.Pause()
	}
	return succ
}

// Release exits the lock.
func (l *RelayLock) Release(succ *flagElement) {
	if succ != nil {
		succ.gate.Store(1)
		return
	}
	// Entry list empty: fast-path unlock expects LOCKEDEMPTY.
	if l.arrivals.CompareAndSwap(nemo(), nil) {
		return
	}
	// Arrivals populated: detach and grant the head.
	w := l.arrivals.Swap(nemo())
	w.gate.Store(1)
}

// Lock acquires l (sync.Locker).
func (l *RelayLock) Lock() {
	e := getFlagElement()
	l.succ, l.cur = l.Acquire(e), e
}

// Unlock releases l (sync.Locker).
func (l *RelayLock) Unlock() {
	succ, e := l.succ, l.cur
	l.succ, l.cur = nil, nil
	l.Release(succ)
	if e != nil {
		putFlagElement(e)
	}
}

// TryLock attempts a non-blocking acquire.
func (l *RelayLock) TryLock() bool {
	if l.arrivals.CompareAndSwap(nil, nemo()) {
		l.succ, l.cur = nil, nil
		return true
	}
	return false
}

// Locked reports whether the lock was held at the instant of the load.
func (l *RelayLock) Locked() bool { return l.arrivals.Load() != nil }
