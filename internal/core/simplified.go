package core

import (
	"sync/atomic"

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
	e.gate.Store(0)
	succ := l.arrivals.Swap(e)
	siteSArriveAcquire.Hit()
	if succ == nil {
		// Fast-path uncontended acquire: publish our element as the
		// segment terminus (Listing 2 line 23).
		l.eos.Store(e)
		return nil
	}
	// Coerce NEMO to nil: no predecessor on this segment.
	if succ == nemo() {
		succ = nil
	}
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	for e.gate.Load() == 0 {
		if l.Park && w.Spins() >= parkThreshold {
			// A futex park bypasses Pause, so report it to the
			// telemetry sink directly; each (re-)park counts once.
			if s := w.Sink(); s != nil {
				s.CountPark()
			}
			futex.Wait(&e.gate, 0)
			continue
		}
		w.Pause()
	}
	// Check for the eos-terminated entry segment chain. Crucially the
	// eos word does not change under sustained contention, so this
	// load tends to hit in-cache.
	veos := l.eos.Load()
	if succ == veos && succ != nil {
		succ = nil
		l.eos.Store(nemo())
	}
	return succ
}

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
		siteSDetachRelease.Hit()
		w := l.arrivals.Swap(nemo())
		if w != e && w != nemo() {
			l.grant(w)
			return
		}
		// Bounded waiters self-removed the arrival stack back down to
		// our own fast-path marker between the load and the detach (see
		// bounded.go); granting it would wedge the lock. The marker is
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
	siteSGrant.Hit()
	succ.gate.Store(1)
	if l.Park {
		futex.Wake(&succ.gate, 1)
	}
}

// Lock acquires l (sync.Locker).
func (l *SimplifiedLock) Lock() {
	e := getFlagElement()
	l.succ, l.cur = l.Acquire(e), e
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
	if siteSTryLock.Fail() {
		return false
	}
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
