package locks

import (
	"time"

	"repro/internal/bounded"
	"repro/internal/chaos"
	"repro/internal/clock"
)

// Bounded acquisition for the queue baselines. Lock and LockFor share
// one acquire body per lock (lockBounded, with no deadline for Lock),
// and each abandons inside its protocol:
//
//   - MCS abandons by publishing mcsAbandoned into its own node with a
//     CAS; the release cascades through abandoned nodes (unlockNode).
//   - CLH abandons by publishing its spin target in its own node's
//     aband word; successors hop past and reclaim abandoned nodes.
//
// Every other baseline with a TryLock (TAS, TTAS, Ticket, Chen,
// Retrograde*, ABQL, TWA, HemLock, FutexMutex) is served by the
// generic TryLock-polling fallback (bounded.PollFor, applied
// by registry.WithBounded). A taken ticket cannot be abandoned — the
// grant chain would wedge on the unclaimed number — so the ticket
// family's bounded path barges through its TryLock doorway, trading
// FIFO admission for abandonability (the classic timedlock-over-ticket
// compromise).

// Chaos points, one per call site.
var (
	chMcsArrive     = chaos.NewPoint("mcs.arrive")     // MCSLock.lockBounded
	chMcsAbandon    = chaos.NewPoint("mcs.abandon")    // MCSLock.lockBounded
	chMcsGrant      = chaos.NewPoint("mcs.grant")      // MCSLock.unlockNode
	chClhArrive     = chaos.NewPoint("clh.arrive")     // CLHLock.enqueue
	chClhAbandon    = chaos.NewPoint("clh.abandon")    // CLHLock.lockBounded
	chClhTryAbandon = chaos.NewPoint("clh.tryabandon") // CLHLock.TryLock
)

// Interface conformance for the natively bounded baselines.
var (
	_ bounded.Locker = (*MCSLock)(nil)
	_ bounded.Locker = (*CLHLock)(nil)
)

// LockFor acquires l like Lock but gives up after d, reporting whether
// the lock was acquired. LockFor(0) is equivalent to TryLock.
func (l *MCSLock) LockFor(d time.Duration) bool {
	if d <= 0 {
		return l.TryLock()
	}
	return l.lockBounded(clock.Or(l.Clk).Now() + d)
}

// LockFor acquires l like Lock but gives up after d, reporting whether
// the lock was acquired. LockFor(0) is equivalent to TryLock.
func (l *CLHLock) LockFor(d time.Duration) bool {
	if d <= 0 {
		return l.TryLock()
	}
	return l.lockBounded(clock.Or(l.Clk).Now() + d)
}
