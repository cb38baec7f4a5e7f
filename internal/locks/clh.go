package locks

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pad"
	"repro/internal/waiter"
)

// clhNode is a CLH queue node. Under CLH, nodes migrate between
// threads: a releasing thread's node is inherited (and here recycled)
// by its successor, which the paper flags as NUMA-unfriendly and as
// the source of CLH's extra indirection (§8).
type clhNode struct {
	succMustWait atomic.Uint32
	// aband supports bounded acquisition. A waiter that gives up
	// publishes, in its own node, the predecessor it was spinning on
	// and then never touches the queue again; the node's unique
	// successor observes aband, hops its spin target to that
	// predecessor, and reclaims this node. Any grant already posted in
	// the predecessor's word persists until the inheriting spinner
	// consumes it, so abandonment needs no CAS and cannot lose a
	// wakeup.
	aband atomic.Pointer[clhNode]
	_     [pad.SectorSize - 16]byte
}

var clhPool = sync.Pool{New: func() any { return new(clhNode) }}

// CLHLock is the CLH queue lock in the standard-interface form of
// Scott's Figure 4.14 [52]: the lock body carries the tail and the
// owner's node (head), so nothing needs to be passed by the caller.
// The required dummy node is installed lazily on first acquisition,
// mirroring the paper's handling of trivially initialized
// pthread_mutex instances (§7.1): the zero value is an unlocked lock.
//
// Note CLH's arrival performs a dependent load on the address
// returned by the exchange — the waiter cannot know where it will
// spin until the exchange completes (§8's stall analysis).
type CLHLock struct {
	tail atomic.Pointer[clhNode]
	// head is the owner's node (owner-owned acquire-to-release
	// context), making the lock body two words as in Table 1.
	head *clhNode
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// ensureInit installs the dummy node on first use.
func (l *CLHLock) ensureInit() {
	if l.tail.Load() != nil {
		return
	}
	dummy := clhPool.Get().(*clhNode)
	dummy.succMustWait.Store(0)
	dummy.aband.Store(nil)
	if !l.tail.CompareAndSwap(nil, dummy) {
		clhPool.Put(dummy) // raced; someone else initialized
	}
}

// enqueue checks out a fresh node, publishes it as the tail, and
// returns (node, displaced predecessor).
func (l *CLHLock) enqueue() (n, pred *clhNode) {
	n = clhPool.Get().(*clhNode)
	n.succMustWait.Store(1)
	n.aband.Store(nil)
	pred = l.tail.Swap(n)
	chClhArrive.Hit()
	return n, pred
}

// hop advances past an abandoned predecessor: it returns the node the
// abandoner was spinning on and reclaims the abandoned node, which no
// other thread can still reference (we were its unique successor and
// the abandoner's aband store was its final access).
func hop(pred, a *clhNode) *clhNode {
	clhPool.Put(pred)
	return a
}

// Lock acquires l.
func (l *CLHLock) Lock() { l.lockBounded(0) }

// lockBounded is Lock with a budget: an absolute deadline on l's clock
// (zero = none). With none, the abandon branch is never reached.
func (l *CLHLock) lockBounded(deadline time.Duration) bool {
	l.ensureInit()
	n, pred := l.enqueue()
	// Dependent load chain: spin on the predecessor's node.
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	for pred.succMustWait.Load() != 0 {
		if a := pred.aband.Load(); a != nil {
			pred = hop(pred, a)
			continue
		}
		if !w.PauseBounded(deadline) {
			if pred.succMustWait.Load() == 0 {
				// The grant landed as the budget expired: take it.
				break
			}
			chClhAbandon.Hit()
			n.aband.Store(pred)
			return false
		}
	}
	// We own the lock. The predecessor's node is now ours to recycle
	// (nodes circulate); our own node stays enqueued until release.
	clhPool.Put(pred)
	l.head = n
	return true
}

// Unlock releases l: a single store, constant time, no atomics (§6).
func (l *CLHLock) Unlock() {
	n := l.head
	l.head = nil
	n.succMustWait.Store(0)
}

// TryLock attempts a non-blocking acquire. A load-then-CAS doorway
// would be unsound here (nodes circulate through the pool, exposing
// the tail to A-B-A between the check and the CAS), but the
// abandonment protocol makes a correct TryLock possible: enqueue
// unconditionally, hop past any abandoned predecessors, check the
// live predecessor's word once, and on failure abandon the fresh node
// immediately. Each failed attempt parks one node in the queue for
// the next arrival to consume, so repeated failures do not accumulate
// state.
func (l *CLHLock) TryLock() bool {
	l.ensureInit()
	n, pred := l.enqueue()
	for {
		if pred.succMustWait.Load() == 0 {
			clhPool.Put(pred)
			l.head = n
			return true
		}
		if a := pred.aband.Load(); a != nil {
			pred = hop(pred, a)
			continue
		}
		chClhTryAbandon.Hit()
		n.aband.Store(pred)
		return false
	}
}
