package locks

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pad"
	"repro/internal/waiter"
)

// mcsNode is an MCS queue node. Nodes are recycled through a pool:
// the paper's pthread implementation keeps a thread-local free stack
// for the same purpose, because a node cannot be reclaimed until the
// matching unlock (§7.1).
type mcsNode struct {
	next   atomic.Pointer[mcsNode]
	locked atomic.Uint32
	_      [pad.SectorSize - 12]byte
}

var mcsPool = sync.Pool{New: func() any { return new(mcsNode) }}

// mcsNode.locked states. A bounded waiter that times out publishes
// mcsAbandoned with a CAS against mcsWaiting; winning the CAS hands
// ownership of the node to the eventual releaser, which continues the
// release through it (unlockNode). Losing the CAS means the grant
// already landed, so the waiter accepts and immediately releases.
const (
	mcsGranted   = 0
	mcsWaiting   = 1
	mcsAbandoned = 2
)

// MCSLock is the classic Mellor-Crummey–Scott queue lock: FIFO, local
// spinning on one's own node, explicit next pointers (the queue can
// be edited, unlike CLH/HemLock/Reciprocating). The owner's node is
// kept in the lock body as acquire-to-release context, making the
// lock two words as in the paper's Table 1 accounting.
//
// The zero value is an unlocked lock.
type MCSLock struct {
	tail atomic.Pointer[mcsNode]
	// head is the owner's node (owner-owned context).
	head *mcsNode
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Lock acquires l.
func (l *MCSLock) Lock() { l.lockBounded(0) }

// lockBounded is Lock with a budget: an absolute deadline on l's clock
// (zero = none). With none, the abandon branch is never reached.
func (l *MCSLock) lockBounded(deadline time.Duration) bool {
	n := mcsPool.Get().(*mcsNode)
	n.next.Store(nil)
	n.locked.Store(mcsWaiting)
	pred := l.tail.Swap(n)
	chMcsArrive.Hit()
	if pred == nil {
		l.head = n
		return true
	}
	// Enqueue behind pred and spin locally on our own node.
	pred.next.Store(n)
	w := waiter.New(l.Clk)
	for n.locked.Load() != mcsGranted {
		if !w.PauseBounded(deadline) {
			chMcsAbandon.Hit()
			if n.locked.CompareAndSwap(mcsWaiting, mcsAbandoned) {
				// Node ownership transferred to the eventual releaser;
				// we must not touch n again.
				return false
			}
			// Lost the race to the grant: we hold the lock. Accept,
			// then immediately release and report failure.
			l.unlockNode(n)
			return false
		}
	}
	l.head = n
	return true
}

// Unlock releases l.
func (l *MCSLock) Unlock() {
	n := l.head
	l.head = nil
	l.unlockNode(n)
}

// unlockNode releases the lock held at node n. The grant is a Swap
// rather than a plain store so the releaser learns whether the
// successor it just granted had abandoned its acquisition; if so, the
// successor's node now belongs to the releaser (the abandoning waiter
// CAS-transferred ownership and will never touch it again) and the
// release cascades through it until a live waiter or the queue tail is
// reached.
func (l *MCSLock) unlockNode(n *mcsNode) {
	for {
		if n.next.Load() == nil {
			// Appears uncontended: try to swing the tail back to nil.
			if l.tail.CompareAndSwap(n, nil) {
				mcsPool.Put(n)
				return
			}
			// A successor is mid-enqueue: wait for its link to appear.
			// This is the non-constant-time release path of MCS (§6).
			w := waiter.New(l.Clk)
			for n.next.Load() == nil {
				w.Pause()
			}
		}
		succ := n.next.Load()
		chMcsGrant.Hit()
		old := succ.locked.Swap(mcsGranted)
		mcsPool.Put(n)
		if old != mcsAbandoned {
			return
		}
		n = succ
	}
}

// TryLock attempts a non-blocking acquire.
func (l *MCSLock) TryLock() bool {
	n := mcsPool.Get().(*mcsNode)
	n.next.Store(nil)
	n.locked.Store(0)
	if l.tail.CompareAndSwap(nil, n) {
		l.head = n
		return true
	}
	mcsPool.Put(n)
	return false
}
