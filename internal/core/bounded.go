package core

import (
	"context"
	"time"

	"repro/internal/bounded"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/futex"
	"repro/internal/waiter"
)

// Bounded (cancellable) acquisition for the canonical Reciprocating
// variants. The admission chain makes abandonment the algorithm's
// hardest robustness question: a waiter's element address is live
// context — it is the CAS comparand of the next arrival's succ link
// and may become an end-of-segment marker — so a waiter cannot simply
// leave. Two exits exist, in preference order:
//
//  1. Self-removal. While arrivals still equals our element e, no
//     later thread has swapped over us, so nobody captured e as a
//     successor and no release detached a segment containing e. The
//     doorway was a Swap(tail→e); CompareAndSwap(e→tail) is its exact
//     inverse and linearizes against both arrivals (Swap) and releases
//     (detach-Swap / fast-path CAS). One restriction: the displaced
//     tail must be a real element. Restoring LOCKEDEMPTY can interleave
//     between a releaser's failed fast-path CAS and its detach Swap,
//     handing the releaser the un-grantable sentinel and losing the
//     wakeup — and a waiter that displaced LOCKEDEMPTY is the entire
//     entry segment, so the very next release must grant it anyway.
//  2. Accept-then-release. Once published (buried by a later arrival,
//     or self-removal forbidden by rule 1), the waiter degrades to
//     accepting the eventual grant — performing the full terminus
//     bookkeeping — and immediately releasing, reporting failure. The
//     succession invariants are preserved because the abandoning
//     thread is, for one instant, an ordinary owner.
//
// A buried waiter retries self-removal while waiting: admission within
// a segment is LIFO, so the threads above it either self-remove
// (surfacing it back to the top of the arrivals stack) or are granted
// and release onto it; both resolutions are driven by live threads.

var (
	chArrive   = chaos.NewPoint("reciprocating.arrive")
	chGrant    = chaos.NewPoint("reciprocating.grant")
	chDetach   = chaos.NewPoint("reciprocating.detach")
	chTry      = chaos.NewPoint("reciprocating.trylock")
	chAbandon  = chaos.NewPoint("reciprocating.abandon")
	chSArrive  = chaos.NewPoint("simplified.arrive")
	chSGrant   = chaos.NewPoint("simplified.grant")
	chSDetach  = chaos.NewPoint("simplified.detach")
	chSTry     = chaos.NewPoint("simplified.trylock")
	chSAbandon = chaos.NewPoint("simplified.abandon")
)

// Labeled sites: several points serve more than one call site (the
// blocking and bounded acquire paths share arrival points; TryLock
// vetoes fire from three methods), so each call site hits the point
// through a label that stall/violation dumps can name.
var (
	siteArriveLock     = chArrive.Site("Lock.Acquire")
	siteArriveBounded  = chArrive.Site("Lock.lockBounded")
	siteGrantRelease   = chGrant.Site("Lock.Release")
	siteDetachRelease  = chDetach.Site("Lock.Release")
	siteTryLock        = chTry.Site("Lock.TryLock")
	siteTryLockFor     = chTry.Site("Lock.LockFor")
	siteTryFair        = chTry.Site("FairLock.TryLock")
	siteAbandonBounded = chAbandon.Site("Lock.lockBounded")
	siteSArriveAcquire = chSArrive.Site("SimplifiedLock.Acquire")
	siteSArriveBounded = chSArrive.Site("SimplifiedLock.lockBounded")
	siteSGrant         = chSGrant.Site("SimplifiedLock.grant")
	siteSDetachRelease = chSDetach.Site("SimplifiedLock.Release")
	siteSTryLock       = chSTry.Site("SimplifiedLock.TryLock")
	siteSTryLockFor    = chSTry.Site("SimplifiedLock.LockFor")
	siteSAbandon       = chSAbandon.Site("tryAbandonSimplified")
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
// residue in the admission chain that could block other threads.
func (l *Lock) LockFor(d time.Duration) bool {
	if siteTryLockFor.Fail() {
		return false
	}
	if d <= 0 {
		return l.TryLock()
	}
	return l.lockBounded(clock.Or(l.Clk).Now()+d, nil)
}

// LockCtx acquires l unless ctx is cancelled or expires first. It
// returns nil exactly when the lock was acquired.
func (l *Lock) LockCtx(ctx context.Context) error {
	return bounded.CtxFrom(l.Clk, ctx, l.lockBounded)
}

// lockBounded is the deadline/cancellation-aware acquire. On success
// it installs the owner context exactly as Lock does.
func (l *Lock) lockBounded(deadline time.Duration, done <-chan struct{}) bool {
	e := getElement()
	e.gate.Store(nil)
	var succ *WaitElement
	eos := e

	tail := l.arrivals.Swap(e)
	siteArriveBounded.Hit()
	if tail == nil {
		// Uncontended fast path: identical to Acquire.
		l.succ, l.eos, l.cur = nil, e, e
		return true
	}
	if tail != &lockedEmptySentinel {
		succ = tail
	}

	w := waiter.NewClocked(l.Policy, l.Clk)
	timedOut := false
	for {
		eos = e.gate.Load()
		if eos != nil {
			break
		}
		if timedOut {
			// Exit 1: self-removal, retried as threads above us in the
			// LIFO segment drain. Legal only when the displaced tail is
			// a real element (see the file comment).
			if tail != &lockedEmptySentinel && l.arrivals.Load() == e {
				siteAbandonBounded.Hit()
				if l.arrivals.CompareAndSwap(e, tail) {
					putElement(e)
					return false
				}
			}
			w.Pause()
			continue
		}
		if !w.PauseBounded(deadline, done) {
			timedOut = true
		}
	}

	// Granted. Normal terminus bookkeeping.
	if succ == eos {
		succ = nil
		eos = &lockedEmptySentinel
	}
	if timedOut {
		// Exit 2: accept-then-release — we are momentarily an ordinary
		// owner, so the standard Release preserves succession.
		l.Release(Token{succ: succ, eos: eos, elem: e})
		putElement(e)
		return false
	}
	l.succ, l.eos, l.cur = succ, eos, e
	return true
}

// LockFor acquires l like Lock but gives up after d, reporting whether
// the lock was acquired. LockFor(0) is equivalent to TryLock.
func (l *SimplifiedLock) LockFor(d time.Duration) bool {
	if siteSTryLockFor.Fail() {
		return false
	}
	if d <= 0 {
		return l.TryLock()
	}
	return l.lockBounded(clock.Or(l.Clk).Now()+d, nil)
}

// LockCtx acquires l unless ctx is cancelled or expires first. It
// returns nil exactly when the lock was acquired.
func (l *SimplifiedLock) LockCtx(ctx context.Context) error {
	return bounded.CtxFrom(l.Clk, ctx, l.lockBounded)
}

// lockBounded mirrors (*Lock).lockBounded for the Listing 2 layout:
// the same two abandonment exits, with NEMO in the LOCKEDEMPTY role
// and the sequestered eos word handled as in Acquire. In Park mode a
// bounded waiter blocks with futex.WaitTimeout in short slices so the
// deadline and done channel stay honored without a dedicated wakeup
// from the releaser.
func (l *SimplifiedLock) lockBounded(deadline time.Duration, done <-chan struct{}) bool {
	e := getFlagElement()
	e.gate.Store(0)

	succRaw := l.arrivals.Swap(e)
	siteSArriveBounded.Hit()
	if succRaw == nil {
		l.eos.Store(e)
		l.succ, l.cur = nil, e
		return true
	}
	succ := succRaw
	if succ == nemo() {
		succ = nil
	}

	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	timedOut := false
	for e.gate.Load() == 0 {
		if timedOut {
			if tryAbandonSimplified(l, e, succRaw) {
				putFlagElement(e)
				return false
			}
			if l.Park && w.Spins() >= parkThreshold {
				if s := w.Sink(); s != nil {
					s.CountPark()
				}
				futex.Wait(&e.gate, 0)
				continue
			}
			w.Pause()
			continue
		}
		if l.Park && w.Spins() >= parkThreshold {
			if s := w.Sink(); s != nil {
				s.CountPark()
			}
			// Parked bounded waiting: slice the sleep so cancellation
			// is observed promptly even though releases only post one
			// wake per grant.
			slice := parkSlice
			if deadline != 0 {
				if rem := deadline - clock.Or(l.Clk).Now(); rem <= 0 {
					timedOut = true
					continue
				} else if rem < slice {
					slice = rem
				}
			}
			if done != nil {
				select {
				case <-done:
					timedOut = true
					continue
				default:
				}
			}
			futex.WaitTimeoutClock(&e.gate, 0, slice, l.Clk)
			continue
		}
		if !w.PauseBounded(deadline, done) {
			timedOut = true
		}
	}

	veos := l.eos.Load()
	if succ == veos && succ != nil {
		succ = nil
		l.eos.Store(nemo())
	}
	if timedOut {
		l.Release(succ, e)
		putFlagElement(e)
		return false
	}
	l.succ, l.cur = succ, e
	return true
}

// parkSlice bounds one futex sleep of a bounded parked waiter.
const parkSlice = 100 * time.Microsecond

// tryAbandonSimplified attempts the self-removal exit for e, which
// displaced succRaw at arrival. Same legality rule as the canonical
// variant: never restore the NEMO sentinel.
func tryAbandonSimplified(l *SimplifiedLock, e, succRaw *flagElement) bool {
	if succRaw == nemo() || l.arrivals.Load() != e {
		return false
	}
	siteSAbandon.Hit()
	return l.arrivals.CompareAndSwap(e, succRaw)
}
