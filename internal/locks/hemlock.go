package locks

import (
	"sync"
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/waiter"
)

// hemNode carries HemLock's per-thread Grant field: ownership is
// transferred address-wise — the releasing thread publishes the
// address of the lock being released in its own node, and the waiter
// watching that node recognizes the lock it is waiting for. The
// address-based protocol is what lets a single element serve a thread
// holding several contended locks (with the multi-waiting caveat the
// paper analyzes).
type hemNode struct {
	grant atomic.Pointer[HemLock]
	_     [pad.SectorSize - 8]byte
}

var hemPool = sync.Pool{New: func() any { return new(hemNode) }}

// HemLock is Dice & Kogan's HemLock (SPAA 2021) with the CTR
// (coherence traffic reduction) acknowledgement: the lock body is a
// single tail word; waiters spin on their predecessor's element; the
// releasing thread publishes the lock address in its own element and
// then waits for the successor to acknowledge consumption before the
// element can be reused — the synchronous back-and-forth that costs
// HemLock its constant-time release (§6, Table 1).
//
// The zero value is an unlocked lock.
type HemLock struct {
	tail atomic.Pointer[hemNode]
	// self is the owner's element (owner-owned context).
	self *hemNode
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Lock acquires l.
func (l *HemLock) Lock() {
	n := hemPool.Get().(*hemNode)
	n.grant.Store(nil)
	pred := l.tail.Swap(n)
	if pred != nil {
		// Semi-local spinning on the predecessor's element, waiting
		// for it to publish this lock's address.
		w := waiter.New(l.Clk)
		for pred.grant.Load() != l {
			w.Pause()
		}
		// CTR acknowledgement: consume the grant so the predecessor
		// may retire its element.
		pred.grant.Store(nil)
	}
	l.self = n
}

// Unlock releases l. Unlocking an unlocked HemLock panics: without
// the guard the nil owner element would be pooled as a typed nil
// (sync.Pool's nil check misses it) and poison a later acquisition —
// of any HemLock instance — with a delayed nil dereference.
func (l *HemLock) Unlock() {
	n := l.self
	if n == nil {
		panic("locks: HemLock.Unlock of unlocked lock")
	}
	l.self = nil
	if l.tail.Load() == n && l.tail.CompareAndSwap(n, nil) {
		// Uncontended: constant-time release.
		hemPool.Put(n)
		return
	}
	// Contended: publish ownership address-wise, then wait for the
	// successor's acknowledgement to protect the element lifecycle.
	n.grant.Store(l)
	w := waiter.New(l.Clk)
	for n.grant.Load() != nil {
		w.Pause()
	}
	hemPool.Put(n)
}

// TryLock attempts a non-blocking acquire.
func (l *HemLock) TryLock() bool {
	n := hemPool.Get().(*hemNode)
	n.grant.Store(nil)
	if l.tail.CompareAndSwap(nil, n) {
		l.self = n
		return true
	}
	hemPool.Put(n)
	return false
}
