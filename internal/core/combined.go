package core

import (
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/waiter"
)

// CombinedLock is the Listing 6 variant, combining the double-swap
// arrival of Listing 3 with the per-element eos conveyance of Listing
// 5: on an arrival race the owner *retains* the lock (no abdication),
// adopts the freshly detached chain as its entry segment, and plants
// its own (now buried) element address as the chain's end-of-segment
// marker in the head element's eos field. The marker propagates toward
// the tail only in that rare onset-of-contention case; under sustained
// steady-state contention no eos stores occur at all.
//
// Only the successor needs to be passed from Acquire to Release. The
// zero value is an unlocked lock ready for use.
type CombinedLock struct {
	arrivals atomic.Pointer[flagElement]
	_        [pad.SectorSize - 8]byte

	succ *flagElement
	cur  *flagElement

	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Acquire enters the lock and returns the successor context for
// Release.
func (l *CombinedLock) Acquire(e *flagElement) *flagElement {
	e.eos.Store(nil)
	e.gate.Store(0)
	var succ *flagElement

	tail := l.arrivals.Swap(e)
	if tail == nil {
		// Fast path: we hold the lock; try to replace our element
		// with LOCKEDEMPTY.
		r := l.arrivals.Swap(nemo())
		if r != e {
			// Arrival race: r heads a detached chain with our element
			// buried at its distal end. Keep ownership, adopt the
			// chain as our entry segment, and convey our address as
			// its logical end-of-segment marker.
			r.eos.Store(e)
			succ = r
		}
		return succ
	}

	// Contended slow path.
	if tail != nemo() {
		succ = tail
	}
	w := waiter.New(l.Clk)
	for e.gate.Load() == 0 {
		w.Pause()
	}
	// Rare: only at contention onset when the initial owner raced in
	// its swap-swap window and its element became a zombie terminus.
	if eos := e.eos.Load(); eos != nil {
		if eos == succ {
			// Our successor is the zombie: the segment ends here.
			succ = nil
		} else {
			// Propagate the marker toward the tail.
			succ.eos.Store(eos)
		}
	}
	return succ
}

// Release exits the lock.
func (l *CombinedLock) Release(succ *flagElement) {
	if succ == nil {
		// Entry list and (maybe) arrivals empty: fast-path unlock.
		if l.arrivals.CompareAndSwap(nemo(), nil) {
			return
		}
		// Detach a new arrival segment; its head becomes successor.
		succ = l.arrivals.Swap(nemo())
	}
	succ.gate.Store(1)
}

// Lock acquires l (sync.Locker).
func (l *CombinedLock) Lock() {
	e := getFlagElement()
	l.succ, l.cur = l.Acquire(e), e
}

// Unlock releases l (sync.Locker).
func (l *CombinedLock) Unlock() {
	succ, e := l.succ, l.cur
	l.succ, l.cur = nil, nil
	l.Release(succ)
	if e != nil {
		putFlagElement(e)
	}
}

// TryLock attempts a non-blocking acquire.
func (l *CombinedLock) TryLock() bool {
	if l.arrivals.CompareAndSwap(nil, nemo()) {
		l.succ, l.cur = nil, nil
		return true
	}
	return false
}

// Locked reports whether the lock was held at the instant of the load.
func (l *CombinedLock) Locked() bool { return l.arrivals.Load() != nil }
