package core

import (
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/waiter"
)

// FetchAddLock is the Listing 4 variant: the arrival word is a tagged
// value whose low two bits form a state machine driven by fetch-add
// (arrived → detached → unlocked), eliminating both the LOCKEDEMPTY
// sentinel and end-of-segment conveyance. The Release path executes
// exactly one atomic operation. Arrival remains a single wait-free
// exchange (plus one fetch-add on the uncontended path).
//
// Like Listing 3, an arrival race in the exchange/fetch-add window is
// resolved by delegating ownership to the head of the freshly detached
// segment and joining the waiters.
//
// The zero value is an unlocked lock ready for use.
type FetchAddLock struct {
	arrivals atomic.Uint64
	_        [pad.SectorSize - 8]byte

	succ *taggedElement
	cur  *taggedElement

	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// fetchAndMark is Listing 4's FetchAndMark: atomically increment the
// arrival word's tag, returning the prior word. It converts
// locked+arrived to locked+detached, and locked+detached to unlocked.
func (l *FetchAddLock) fetchAndMark() uint64 { return l.arrivals.Add(1) - 1 }

// Acquire enters the lock and returns the successor context for
// Release.
func (l *FetchAddLock) Acquire(e *taggedElement) *taggedElement {
	e.gate.Store(0)
	prev := l.arrivals.Swap(encode(e))
	if prev == 0 || prev&tagUnlocked != 0 {
		// Uncontended acquisition: the exchange moved the word from
		// unlocked to locked+arrived. Mark the stack detached,
		// extracting our own element if nothing raced in.
		r := l.fetchAndMark()
		if r == encode(e) {
			return nil // fast path
		}
		// New arrivals landed in the exchange/fetch-add window; r
		// heads the detached segment and our element lies buried at
		// its distal end. Delegate ownership to r and wait for
		// natural succession to reach us.
		rElem := taggedReg.lookup(r >> 2)
		rElem.gate.Store(1)
		// Our successor is nil: we terminate the detached segment.
		l.waitGate(e)
		return nil
	}
	succ := annulMarked(prev)
	l.waitGate(e)
	return succ
}

func (l *FetchAddLock) waitGate(e *taggedElement) {
	w := waiter.New(l.Clk)
	for e.gate.Load() == 0 {
		w.Pause()
	}
}

// Release exits the lock with a single atomic in every case.
func (l *FetchAddLock) Release(succ *taggedElement) {
	if succ == nil {
		old := l.fetchAndMark()
		if old&tagLockedDetached != 0 {
			return // detached+empty → unlocked
		}
		// We just detached fresh arrivals; grant the head.
		succ = taggedReg.lookup(old >> 2)
	}
	succ.gate.Store(1)
}

// Lock acquires l (sync.Locker).
func (l *FetchAddLock) Lock() {
	e := getTaggedElement()
	l.succ, l.cur = l.Acquire(e), e
}

// Unlock releases l (sync.Locker).
func (l *FetchAddLock) Unlock() {
	succ, e := l.succ, l.cur
	l.succ, l.cur = nil, nil
	l.Release(succ)
	if e != nil {
		putTaggedElement(e)
	}
}

// TryLock attempts a non-blocking acquire. On success the word is in
// the locked+detached state, which Release's fetch-add reverts.
func (l *FetchAddLock) TryLock() bool {
	v := l.arrivals.Load()
	if v != 0 && v&tagUnlocked == 0 {
		return false
	}
	// Transition unlocked → locked+detached in one CAS, preserving
	// the fetch-add protocol (tag 10 → 01 is not an increment, so a
	// dedicated encoding change: reuse stale upper bits with tag 01).
	if l.arrivals.CompareAndSwap(v, (v&^uint64(tagMask))|tagLockedDetached) {
		l.succ, l.cur = nil, nil
		return true
	}
	return false
}

// Locked reports whether the lock was held at the instant of the load.
func (l *FetchAddLock) Locked() bool {
	v := l.arrivals.Load()
	return v != 0 && v&tagUnlocked == 0
}
