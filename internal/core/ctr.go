package core

import (
	"sync/atomic"

	"repro/internal/waiter"
)

// CTRLock explores the paper's §10 future-work direction: applying
// HemLock's CTR (coherence traffic reduction) waiting discipline to
// Reciprocating Locks.
//
// In the canonical Listing 1, a waiter (a) re-arms its Gate with a
// store at the top of Acquire (an S→M upgrade in steady state), then
// (b) busy-waits with plain loads, and the granted value is eventually
// consumed leaving the line in Shared state. Under CTR the waiter
// instead *consumes* the grant with an atomic exchange, swapping nil
// back into its own Gate the moment the grant is observed. The line
// then finishes the episode in Modified state in the waiter's cache,
// so the next episode's re-arm store is a local hit — the upgrade
// disappears from the steady-state path. On hardware with
// MONITOR/MWAIT (Intel) or WFE (ARM), the paper notes the same idea
// becomes "wait for invalidation of the line, then exchange to claim",
// avoiding all intermediate Shared→Modified transitions; the simulator
// twin of this lock (simlocks.ReciproCTR) models that form and drops
// the steady-state episode cost from 4 coherence events to 3.
//
// Semantics are identical to Lock in every other respect; the zero
// value is an unlocked lock.
type CTRLock struct {
	arrivals atomic.Pointer[WaitElement]

	succ *WaitElement
	eos  *WaitElement
	cur  *WaitElement

	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Acquire enters the lock with the supplied element and returns the
// release token.
func (l *CTRLock) Acquire(e *WaitElement) Token {
	// CTR invariant: our Gate is already nil — either the element is
	// fresh, or the previous episode's consuming exchange reset it.
	// A cheap load guards pool elements that were last used by a
	// non-CTR lock.
	if e.gate.Load() != nil {
		e.gate.Store(nil)
	}
	var succ *WaitElement
	eos := e

	tail := l.arrivals.Swap(e)
	if tail != nil {
		if tail != &lockedEmptySentinel {
			succ = tail
		}
		// Wait politely, then consume the grant with an exchange so
		// the Gate line retires Modified in our cache.
		w := waiter.New(l.Clk)
		for {
			if e.gate.Load() != nil {
				eos = e.gate.Swap(nil)
				if eos != nil {
					break
				}
			}
			w.Pause()
		}
		if succ == eos {
			succ = nil
			eos = &lockedEmptySentinel
		}
	}
	return Token{succ: succ, eos: eos, elem: e}
}

// Release exits the lock (identical to Lock.Release).
func (l *CTRLock) Release(t Token) {
	if t.succ != nil {
		t.succ.gate.Store(t.eos)
		return
	}
	if l.arrivals.CompareAndSwap(t.eos, nil) {
		return
	}
	w := l.arrivals.Swap(&lockedEmptySentinel)
	w.gate.Store(t.eos)
}

// Lock acquires l (sync.Locker).
func (l *CTRLock) Lock() {
	e := getElement()
	t := l.Acquire(e)
	l.succ, l.eos, l.cur = t.succ, t.eos, t.elem
}

// Unlock releases l (sync.Locker).
func (l *CTRLock) Unlock() {
	t := Token{succ: l.succ, eos: l.eos, elem: l.cur}
	l.succ, l.eos, l.cur = nil, nil, nil
	l.Release(t)
	if t.elem != nil {
		putElement(t.elem)
	}
}

// TryLock attempts a non-blocking acquire.
func (l *CTRLock) TryLock() bool {
	if l.arrivals.CompareAndSwap(nil, &lockedEmptySentinel) {
		l.succ, l.eos, l.cur = nil, &lockedEmptySentinel, nil
		return true
	}
	return false
}

// Locked reports whether the lock was held at the instant of the load.
func (l *CTRLock) Locked() bool { return l.arrivals.Load() != nil }
