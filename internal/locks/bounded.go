package locks

import (
	"context"
	"time"

	"repro/internal/bounded"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/waiter"
)

// Bounded (cancellable) acquisition for the baseline locks. Each
// family gets the strongest discipline its protocol admits:
//
//   - TAS/TTAS have no admission state at all, so bounding is just a
//     deadline-aware retry of the TryLock doorway: LockFor/LockCtx run
//     the shared polling loop (bounded.PollFor/PollCtx — adaptive hot
//     phase, then jittered sleeps), and the doorway's chaos veto
//     applies (a spurious failure is always legal).
//   - Ticket (and its retrograde descendants) cannot abandon a taken
//     ticket — the grant chain would wedge on the unclaimed number —
//     so the bounded path barges: it polls the TryLock doorway through
//     the same loop and never takes a ticket it might have to abandon,
//     trading FIFO admission for abandonability (the classic
//     timedlock-over-ticket compromise).
//   - MCS abandons by publishing mcsAbandoned into its own node with a
//     CAS; the release cascades through abandoned nodes (unlockNode).
//   - CLH abandons by publishing its spin target in its own node's
//     aband word; successors hop past and reclaim abandoned nodes.
//
// The remaining baselines (Chen, Retrograde*, ABQL, TWA, HemLock,
// FutexMutex) are served by the generic TryLock-polling fallback
// (bounded.PollFor/PollCtx, applied by registry.WithBounded).

var (
	chLocksTry   = chaos.NewPoint("locks.trylock")
	chMcsArrive  = chaos.NewPoint("mcs.arrive")
	chMcsGrant   = chaos.NewPoint("mcs.grant")
	chMcsAbandon = chaos.NewPoint("mcs.abandon")
	chClhArrive  = chaos.NewPoint("clh.arrive")
	chClhAbandon = chaos.NewPoint("clh.abandon")
)

// Labeled sites: locks.trylock serves every baseline TryLock doorway
// and the queue points serve both the blocking and bounded paths, so
// each call site gets a label for stall/violation dumps.
var (
	siteTryTAS        = chLocksTry.Site("TASLock.TryLock")
	siteTryTTAS       = chLocksTry.Site("TTASLock.TryLock")
	siteTryTicket     = chLocksTry.Site("TicketLock.TryLock")
	siteTryMCS        = chLocksTry.Site("MCSLock.TryLock")
	siteTryCLH        = chLocksTry.Site("CLHLock.TryLock")
	siteTryChen       = chLocksTry.Site("ChenLock.TryLock")
	siteTryABQL       = chLocksTry.Site("ABQLock.TryLock")
	siteTryRetro      = chLocksTry.Site("RetrogradeLock.TryLock")
	siteTryRetroRand  = chLocksTry.Site("RetrogradeRandLock.TryLock")
	siteMcsArriveBnd  = chMcsArrive.Site("MCSLock.lockBounded")
	siteMcsArriveLock = chMcsArrive.Site("MCSLock.Lock")
	siteMcsGrant      = chMcsGrant.Site("MCSLock.unlockNode")
	siteMcsAbandon    = chMcsAbandon.Site("MCSLock.lockBounded")
	siteClhArrive     = chClhArrive.Site("CLHLock.enqueue")
	siteClhAbandonBnd = chClhAbandon.Site("CLHLock.lockBounded")
	siteClhAbandonTry = chClhAbandon.Site("CLHLock.TryLock")
)

// Interface conformance for the natively bounded baselines.
var (
	_ bounded.Locker = (*TASLock)(nil)
	_ bounded.Locker = (*TTASLock)(nil)
	_ bounded.Locker = (*TicketLock)(nil)
	_ bounded.Locker = (*MCSLock)(nil)
	_ bounded.Locker = (*CLHLock)(nil)
)

// LockFor acquires l like Lock but gives up after d, reporting whether
// the lock was acquired. LockFor(0) is equivalent to TryLock.
func (l *TASLock) LockFor(d time.Duration) bool {
	return bounded.PollFor(l.TryLock, l.Clk, d)
}

// LockCtx acquires l unless ctx is cancelled or expires first.
func (l *TASLock) LockCtx(ctx context.Context) error {
	return bounded.PollCtx(l.TryLock, l.Clk, ctx)
}

// LockFor acquires l like Lock but gives up after d, reporting whether
// the lock was acquired. LockFor(0) is equivalent to TryLock.
func (l *TTASLock) LockFor(d time.Duration) bool {
	return bounded.PollFor(l.TryLock, l.Clk, d)
}

// LockCtx acquires l unless ctx is cancelled or expires first.
func (l *TTASLock) LockCtx(ctx context.Context) error {
	return bounded.PollCtx(l.TryLock, l.Clk, ctx)
}

// LockFor acquires l, giving up after d. The bounded path barges via
// the TryLock doorway instead of taking a ticket (see the file
// comment), so it does not participate in the lock's FIFO order.
func (l *TicketLock) LockFor(d time.Duration) bool {
	return bounded.PollFor(l.TryLock, l.Clk, d)
}

// LockCtx acquires l unless ctx is cancelled or expires first.
func (l *TicketLock) LockCtx(ctx context.Context) error {
	return bounded.PollCtx(l.TryLock, l.Clk, ctx)
}

// LockFor acquires l like Lock but gives up after d, reporting whether
// the lock was acquired. LockFor(0) is equivalent to TryLock.
func (l *MCSLock) LockFor(d time.Duration) bool {
	if d <= 0 {
		return l.TryLock()
	}
	return l.lockBounded(clock.Or(l.Clk).Now()+d, nil)
}

// LockCtx acquires l unless ctx is cancelled or expires first.
func (l *MCSLock) LockCtx(ctx context.Context) error {
	return bounded.CtxFrom(l.Clk, ctx, l.lockBounded)
}

func (l *MCSLock) lockBounded(deadline time.Duration, done <-chan struct{}) bool {
	n := mcsPool.Get().(*mcsNode)
	n.next.Store(nil)
	n.locked.Store(mcsWaiting)
	pred := l.tail.Swap(n)
	siteMcsArriveBnd.Hit()
	if pred == nil {
		l.head = n
		return true
	}
	pred.next.Store(n)
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	for n.locked.Load() != mcsGranted {
		if !w.PauseBounded(deadline, done) {
			siteMcsAbandon.Hit()
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

// LockFor acquires l like Lock but gives up after d, reporting whether
// the lock was acquired. LockFor(0) is equivalent to TryLock.
func (l *CLHLock) LockFor(d time.Duration) bool {
	if d <= 0 {
		return l.TryLock()
	}
	return l.lockBounded(clock.Or(l.Clk).Now()+d, nil)
}

// LockCtx acquires l unless ctx is cancelled or expires first.
func (l *CLHLock) LockCtx(ctx context.Context) error {
	return bounded.CtxFrom(l.Clk, ctx, l.lockBounded)
}

func (l *CLHLock) lockBounded(deadline time.Duration, done <-chan struct{}) bool {
	l.ensureInit()
	n, pred := l.enqueue()
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	for pred.succMustWait.Load() != 0 {
		if a := pred.aband.Load(); a != nil {
			pred = hop(pred, a)
			continue
		}
		if !w.PauseBounded(deadline, done) {
			if pred.succMustWait.Load() == 0 {
				// The grant landed as the budget expired: take it.
				break
			}
			siteClhAbandonBnd.Hit()
			n.aband.Store(pred)
			return false
		}
	}
	clhPool.Put(pred)
	l.head = n
	return true
}
