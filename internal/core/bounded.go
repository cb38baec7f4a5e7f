package core

import (
	"time"

	"repro/internal/bounded"
	"repro/internal/chaos"
	"repro/internal/clock"
)

// Bounded acquisition for the canonical Reciprocating variants.
// LockFor runs the same acquire body as Lock, with a deadline. The
// admission chain makes abandonment the algorithm's hardest robustness
// question: a waiter's element address is live context — it is the CAS
// comparand of the next arrival's succ link and may become an
// end-of-segment marker — so a waiter cannot simply leave. Two exits
// exist, in preference order:
//
//  1. Self-removal. While arrivals still equals our element e, no
//     later thread has swapped over us, so nobody captured e as a
//     successor and no release detached a segment containing e. The
//     doorway was a Swap(tail→e); CompareAndSwap(e→tail) is its exact
//     inverse and linearizes against both arrivals (Swap) and releases
//     (detach-Swap / fast-path CAS). This holds whatever tail is: a
//     real element, or the LOCKEDEMPTY/NEMO sentinel (a waiter that
//     displaced the sentinel and is still the top is the whole arrival
//     segment). Either restore can land between a releaser's failed
//     fast-path CAS and its detach Swap; the releaser then gets its own
//     marker or the sentinel back from the Swap and retries the unlock
//     (Release).
//  2. Accept-then-release. Once buried by a later arrival, or detached
//     into an entry segment, the waiter degrades to accepting the
//     eventual grant — performing the full terminus bookkeeping — and
//     immediately releasing, reporting failure. The succession
//     invariants are preserved because the abandoning thread is, for
//     one instant, an ordinary owner.
//
// A buried waiter retries self-removal while waiting: admission within
// a segment is LIFO, so the threads above it either self-remove
// (surfacing it back to the top of the arrivals stack) or are granted
// and release onto it; both resolutions are driven by live threads.
// The bound a buried waiter keeps is therefore not strictly d: it
// gives up once the later arrivals above it have left or been served.

// Chaos points, one per call site.
var (
	chArrive   = chaos.NewPoint("reciprocating.arrive")  // Lock.acquire
	chAbandon  = chaos.NewPoint("reciprocating.abandon") // Lock.acquire
	chGrant    = chaos.NewPoint("reciprocating.grant")   // Lock.Release
	chDetach   = chaos.NewPoint("reciprocating.detach")  // Lock.Release
	chSArrive  = chaos.NewPoint("simplified.arrive")     // SimplifiedLock.acquire
	chSAbandon = chaos.NewPoint("simplified.abandon")    // SimplifiedLock.acquire
	chSGrant   = chaos.NewPoint("simplified.grant")      // SimplifiedLock.grant
	chSDetach  = chaos.NewPoint("simplified.detach")     // SimplifiedLock.Release
)

// Interface conformance: the canonical variants satisfy the
// repository-wide bounded contract.
var (
	_ bounded.Locker = (*Lock)(nil)
	_ bounded.Locker = (*SimplifiedLock)(nil)
)

// LockFor acquires l like Lock but gives up after d, reporting whether
// the lock was acquired. LockFor(0) is equivalent to TryLock. A false
// return guarantees the caller does not hold the lock and left no
// residue in the admission chain that could block other threads. A
// waiter that later arrivals have buried gives up only once they have
// left or been served (LIFO drain; see the file comment), so the call
// can outlast d by their stay.
func (l *Lock) LockFor(d time.Duration) bool {
	if d <= 0 {
		return l.TryLock()
	}
	return l.lockBounded(clock.Or(l.Clk).Now() + d)
}

// LockFor acquires l like Lock but gives up after d, reporting whether
// the lock was acquired. LockFor(0) is equivalent to TryLock. The
// bound is the one (*Lock).LockFor states.
func (l *SimplifiedLock) LockFor(d time.Duration) bool {
	if d <= 0 {
		return l.TryLock()
	}
	return l.lockBounded(clock.Or(l.Clk).Now() + d)
}
