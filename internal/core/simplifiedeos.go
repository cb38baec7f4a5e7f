package core

import (
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/waiter"
)

// SimplifiedEOSLock is the Listing 5 variant: the tagged fetch-add
// arrival word of Listing 4, but on an arrival race the owner retains
// the lock — the freshly detached chain becomes its entry segment and
// the owner plants its own buried element's identity in the head's
// eos field as the chain's logical end-of-segment marker. The marker
// is consulted and propagated only in that rare onset-of-contention
// case; eos is always nil in steady state, so no coherence traffic is
// generated for it under sustained contention.
//
// The zero value is an unlocked lock ready for use.
type SimplifiedEOSLock struct {
	arrivals atomic.Uint64
	_        [pad.SectorSize - 8]byte

	succ *taggedElement
	cur  *taggedElement

	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

func (l *SimplifiedEOSLock) fetchAndMark() uint64 { return l.arrivals.Add(1) - 1 }

// Acquire enters the lock and returns the successor context for
// Release.
func (l *SimplifiedEOSLock) Acquire(e *taggedElement) *taggedElement {
	e.eos.Store(nil)
	e.gate.Store(0)
	prev := l.arrivals.Swap(encode(e))
	if prev == 0 || prev&tagUnlocked != 0 {
		// Uncontended acquisition.
		r := l.fetchAndMark()
		if r == encode(e) {
			return nil // fast path
		}
		// Arrival race: new threads pushed in the exchange/fetch-add
		// window; r heads the detached chain, our element is buried
		// at its distal end. Retain ownership; the chain becomes our
		// entry segment, terminated by our zombie element, whose
		// identity we convey through the head's eos field so the
		// penultimate waiter can recognize the logical end.
		rElem := taggedReg.lookup(r >> 2)
		rElem.eos.Store(e)
		return rElem
	}

	succ := annulMarked(prev)
	w := waiter.New(l.Clk)
	for e.gate.Load() == 0 {
		w.Pause()
	}
	// Rare: set only when the initial owner raced at contention onset
	// and became a zombie terminus.
	if eos := e.eos.Load(); eos != nil {
		if eos == succ {
			succ = nil // segment ends at the zombie
		} else {
			succ.eos.Store(eos) // propagate toward the tail
		}
	}
	return succ
}

// Release exits the lock.
func (l *SimplifiedEOSLock) Release(succ *taggedElement) {
	if succ != nil {
		succ.gate.Store(1)
		return
	}
	old := l.fetchAndMark()
	if old&tagLockedDetached != 0 {
		return // detached+empty → unlocked
	}
	taggedReg.lookup(old >> 2).gate.Store(1)
}

// Lock acquires l (sync.Locker).
func (l *SimplifiedEOSLock) Lock() {
	e := getTaggedElement()
	l.succ, l.cur = l.Acquire(e), e
}

// Unlock releases l (sync.Locker).
func (l *SimplifiedEOSLock) Unlock() {
	succ, e := l.succ, l.cur
	l.succ, l.cur = nil, nil
	l.Release(succ)
	if e != nil {
		putTaggedElement(e)
	}
}

// TryLock attempts a non-blocking acquire.
func (l *SimplifiedEOSLock) TryLock() bool {
	v := l.arrivals.Load()
	if v != 0 && v&tagUnlocked == 0 {
		return false
	}
	if l.arrivals.CompareAndSwap(v, (v&^uint64(tagMask))|tagLockedDetached) {
		l.succ, l.cur = nil, nil
		return true
	}
	return false
}

// Locked reports whether the lock was held at the instant of the load.
func (l *SimplifiedEOSLock) Locked() bool {
	v := l.arrivals.Load()
	return v != 0 && v&tagUnlocked == 0
}
