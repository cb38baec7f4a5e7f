package locks

import (
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/waiter"
)

// chenNode is a Chen-lock stack element; it carries no flag because
// all waiting is global: waiters watch the lock's central current
// word for their own element's address.
type chenNode struct {
	_ [pad.SectorSize]byte
}

// chenNEMO is the locked-with-empty-stack sentinel.
var chenNEMO chenNode

// ChenLock models Chen & Huang's fair, space-efficient mutual
// exclusion algorithm [11, 12] — the closest related work to
// Reciprocating Locks (§6): arriving threads exchange themselves onto
// a LIFO stack; a new stack is detached ("closed") when the current
// one is exhausted, giving the same LIFO-within/FIFO-between
// admission order and bounded-bypass property as Reciprocating.
// The difference the paper emphasizes: ownership is published through
// central shared words (current and eos), so every waiter spins
// globally and every release mutates shared globals, increasing
// coherence traffic.
//
// The zero value is an unlocked lock.
type ChenLock struct {
	arrivals atomic.Pointer[chenNode]
	_        [pad.SectorSize - 8]byte
	// current globally publishes the element now admitted; all
	// waiters spin here (global spinning — the key contrast with
	// Reciprocating's local spinning).
	current atomic.Pointer[chenNode]
	_       [pad.SectorSize - 8]byte
	// eos publishes the detached segment's zombie terminus.
	eos atomic.Pointer[chenNode]
	_   [pad.SectorSize - 8]byte

	// Owner-owned context.
	succ *chenNode
	cur  *chenNode

	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Lock acquires l.
func (l *ChenLock) Lock() {
	e := &chenNode{} // cheap: contains only padding; no pool needed
	succ := l.arrivals.Swap(e)
	if succ == nil {
		// Uncontended: publish ourselves as the prospective terminus.
		l.eos.Store(e)
		l.succ, l.cur = nil, e
		return
	}
	if succ == &chenNEMO {
		succ = nil
	}
	// Global spinning on the central current word.
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	for l.current.Load() != e {
		w.Pause()
	}
	if veos := l.eos.Load(); veos == succ && succ != nil {
		succ = nil
		l.eos.Store(&chenNEMO)
	}
	l.succ, l.cur = succ, e
}

// Unlock releases l; every contended release writes the shared
// current word.
func (l *ChenLock) Unlock() {
	succ, e := l.succ, l.cur
	l.succ, l.cur = nil, nil
	if succ != nil {
		l.current.Store(succ)
		return
	}
	k := l.arrivals.Load()
	if k == e || k == &chenNEMO {
		if l.arrivals.CompareAndSwap(k, nil) {
			return
		}
	}
	w := l.arrivals.Swap(&chenNEMO)
	l.current.Store(w)
}

// TryLock attempts a non-blocking acquire: the mirror of the
// Reciprocating TryLock, claiming the empty arrival word with the
// locked-empty sentinel and clearing the zombie-terminus word so a
// waiter queuing behind this episode cannot observe a stale marker.
func (l *ChenLock) TryLock() bool {
	if l.arrivals.CompareAndSwap(nil, &chenNEMO) {
		l.eos.Store(&chenNEMO)
		l.succ, l.cur = nil, nil
		return true
	}
	return false
}
