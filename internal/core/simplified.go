package core

import (
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/futex"
	"repro/internal/pad"
	"repro/internal/waiter"
)

// SimplifiedLock is the Listing 2 (Appendix E) variant the paper
// recommends implementors start from. The end-of-segment marker lives
// in a dedicated, sequestered word of the lock body instead of being
// conveyed through the wait elements, and the element Gate is a plain
// flag. The eos word is written only in the Acquire phase and is
// stable under steady-state sustained contention, so it generates no
// coherence misses in that regime.
//
// The zero value is an unlocked lock ready for use.
type SimplifiedLock struct {
	arrivals atomic.Pointer[flagElement]
	_        [pad.SectorSize - 8]byte

	// eos is the terminus end-of-segment sentinel, sequestered on its
	// own sector (Listing 2 line 10). NEMO (the flag-element
	// LOCKEDEMPTY sentinel) marks "no zombie terminus".
	eos atomic.Pointer[flagElement]
	_   [pad.SectorSize - 8]byte

	// Owner-owned context for the Lock/Unlock interface.
	succ *flagElement
	cur  *flagElement

	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock

	// Park enables futex-style address-based waiting (§8 "polite
	// waiting"): after a short adaptive spin, waiters block on their
	// gate address and releases post a wake. Constant-time paths make
	// this safe — a waiter has exactly one waiting phase and one
	// condition, so the park/wake pairing is one-to-one.
	Park bool
}

// nemo is Listing 2's NEMO sentinel (encoded as 1 in C++): locked with
// an empty, previously detached arrival list.
func nemo() *flagElement { return &flagLockedEmptySentinel }

// Acquire enters the lock with the supplied element and returns the
// successor context for Release.
func (l *SimplifiedLock) Acquire(e *flagElement) *flagElement {
	succ, _ := l.acquire(e, 0)
	return succ
}

// acquire is Listing 2's doorway and waiting phase, the one body behind
// Acquire, Lock and LockFor, with the budget and the two
// abandonment exits of (*Lock).acquire; NEMO plays the LOCKEDEMPTY
// role and the sequestered eos word is maintained as on a grant. In
// Park mode a budgeted waiter, and a timed-out one still waiting to
// self-remove, blocks in futex.WaitTimeoutClock slices so it rechecks its
// budget and its exit without a dedicated wakeup from the releaser;
// only a waiter with no budget parks in a plain futex.Wait.
func (l *SimplifiedLock) acquire(e *flagElement, deadline time.Duration) (*flagElement, bool) {
	e.gate.Store(0)
	succRaw := l.arrivals.Swap(e)
	chSArrive.Hit()
	if succRaw == nil {
		// Fast-path uncontended acquire: publish our element as the
		// segment terminus (Listing 2 line 23).
		l.eos.Store(e)
		return nil, true
	}
	// Coerce NEMO to nil: no predecessor on this segment.
	succ := succRaw
	if succ == nemo() {
		succ = nil
	}
	w := waiter.New(l.Clk)
	timedOut := false
	for e.gate.Load() == 0 {
		if timedOut && l.arrivals.Load() == e {
			// Exit 1: self-removal (see bounded.go).
			chSAbandon.Hit()
			if l.arrivals.CompareAndSwap(e, succRaw) {
				return nil, false
			}
		}
		if l.Park && w.Spins() >= parkThreshold {
			slice := parkSlice
			if !timedOut && deadline != 0 {
				slice = min(slice, deadline-clock.Or(l.Clk).Now())
			}
			if !timedOut && slice <= 0 {
				timedOut = true
				continue
			}
			// A futex park bypasses Pause, so report it to the
			// telemetry sink directly; each (re-)park counts once.
			if s := w.Sink(); s != nil {
				s.CountPark()
			}
			if deadline == 0 {
				futex.Wait(&e.gate, 0)
			} else {
				futex.WaitTimeoutClock(&e.gate, 0, slice, l.Clk)
			}
			continue
		}
		if timedOut {
			w.Pause()
		} else {
			timedOut = !w.PauseBounded(deadline)
		}
	}
	// Check for the eos-terminated entry segment chain. Crucially the
	// eos word does not change under sustained contention, so this
	// load tends to hit in-cache.
	veos := l.eos.Load()
	if succ == veos && succ != nil {
		succ = nil
		l.eos.Store(nemo())
	}
	if timedOut {
		// Exit 2: accept-then-release.
		l.Release(succ, e)
		return nil, false
	}
	return succ, true
}

// parkSlice bounds one futex sleep of a budgeted parked waiter.
const parkSlice = 100 * time.Microsecond

// Release exits the lock; succ must be the value returned by the
// matching Acquire and e the element passed to it.
func (l *SimplifiedLock) Release(succ, e *flagElement) {
	if succ != nil {
		// Entry list populated: appoint the successor.
		l.grant(succ)
		return
	}
	for {
		// Entry list empty: try the uncontended fast-path unlock.
		k := l.arrivals.Load()
		if k == e || k == nemo() {
			if l.arrivals.CompareAndSwap(k, nil) {
				return
			}
		}
		// Arrivals populated: detach the segment and grant its head.
		chSDetach.Hit()
		w := l.arrivals.Swap(nemo())
		if w != e && w != nemo() {
			l.grant(w)
			return
		}
		// Bounded waiters self-removed the arrival stack back down to
		// our own fast-path marker, or to the NEMO root, between the
		// load and the detach (see bounded.go); granting either would
		// wedge the lock. The marker is
		// now off the stack, so its prospective-terminus registration
		// in the eos word is stale — clear it, then retry the unlock
		// against the NEMO root the Swap installed.
		l.eos.Store(nemo())
	}
}

// parkThreshold is the spin budget before a parking waiter blocks.
const parkThreshold = 64

// grant conveys ownership, waking a parked waiter when parking is on.
// The store-then-wake order plus futex.Wait's compare-under-lock makes
// the pairing lose-free.
func (l *SimplifiedLock) grant(succ *flagElement) {
	chSGrant.Hit()
	succ.gate.Store(1)
	if l.Park {
		futex.Wake(&succ.gate, 1)
	}
}

// Lock acquires l (sync.Locker).
func (l *SimplifiedLock) Lock() { l.lockBounded(0) }

// lockBounded is Lock with a budget (see acquire), reporting whether
// it acquired l.
func (l *SimplifiedLock) lockBounded(deadline time.Duration) bool {
	e := getFlagElement()
	succ, ok := l.acquire(e, deadline)
	if !ok {
		putFlagElement(e)
		return false
	}
	l.succ, l.cur = succ, e
	return true
}

// Unlock releases l (sync.Locker).
func (l *SimplifiedLock) Unlock() {
	succ, e := l.succ, l.cur
	l.succ, l.cur = nil, nil
	l.Release(succ, e)
	if e != nil {
		putFlagElement(e)
	}
}

// TryLock attempts a non-blocking acquire.
func (l *SimplifiedLock) TryLock() bool {
	if l.arrivals.CompareAndSwap(nil, nemo()) {
		// Keep the eos word consistent with "no zombie terminus" so a
		// waiter that queues behind this episode cannot observe a
		// stale marker.
		l.eos.Store(nemo())
		l.succ, l.cur = nil, nil
		return true
	}
	return false
}

// Locked reports whether the lock was held at the instant of the load.
func (l *SimplifiedLock) Locked() bool { return l.arrivals.Load() != nil }
