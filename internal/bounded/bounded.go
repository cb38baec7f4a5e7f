// Package bounded defines the repository's bounded-acquisition
// contract: every lock that can give up on an acquisition implements
// Locker, whose LockFor(d) gives up once d has elapsed on the lock's
// clock. That deadline is the only budget: an acquisition gives up
// for no other reason.
//
// Two implementation tiers exist:
//
//   - Native: the canonical Reciprocating variants (internal/core Lock
//     and SimplifiedLock) and the queue baselines (internal/locks MCS,
//     CLH) implement bounded acquisition inside the algorithm, with
//     safe abandonment of an already-published waiter. Each has one
//     arrival-and-wait body that Lock runs with no budget.
//   - Polling: any lock exposing TryLock gains LockFor by retrying
//     TryLock under a deadline-aware waiter pause (PollFor;
//     registry.WithBounded applies it). TAS, TTAS and the
//     ticket family are served this way. Polling acquisition barges
//     (it never enters the lock's queue), so it trades the lock's
//     admission order for the ability to abandon instantly; that is
//     the standard fallback trade-off (cf. pthread_mutex_timedlock
//     over try-loops).
package bounded

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/clock"
	"repro/internal/waiter"
)

// TryLocker is the non-blocking-acquire surface.
type TryLocker interface {
	sync.Locker
	TryLock() bool
}

// Locker is the bounded-acquisition contract.
//
// LockFor acquires the lock, giving up after d; it reports whether the
// lock was acquired. LockFor(0) is equivalent to TryLock. After a
// false return the caller does not hold the lock and the lock remains
// fully usable by other goroutines. The Reciprocating locks admit a
// segment LIFO, so their waiter, once later arrivals bury it, gives up
// only when those have left or been served, not strictly after d. A
// waiter that loses the race between its deadline and a lock grant
// releases the lock before reporting failure — it never returns false
// while holding the lock.
type Locker interface {
	TryLocker
	LockFor(d time.Duration) bool
}

// PollFor is LockFor over a bare try doorway: one attempt, then — for
// d > 0 — retries until d elapses on c (nil = Wall).
func PollFor(try func() bool, c clock.Clock, d time.Duration) bool {
	if try() {
		return true
	}
	if d <= 0 {
		return false
	}
	return poll(try, c, clock.Or(c).Now()+d)
}

// pollSpinBudget is how many waiter pauses a polling episode spends in
// its hot phase (spins and yields) before escalating to jittered
// sleeps — the same escalation point as waiter.PolicyAdaptive's
// spin+yield budgets.
const pollSpinBudget = 96

// pollDefaults is the sleep schedule for escalated polling episodes:
// short enough that tight LockFor deadlines stay responsive, capped so
// an unlucky draw never oversleeps a grant by more than 1ms.
var pollDefaults = backoff.Policy{Base: 20 * time.Microsecond, Cap: time.Millisecond}

// pollSeq decorrelates concurrent polling episodes: each draws its
// jitter stream from a distinct seed, deterministically per process.
var pollSeq atomic.Uint64

// poll is the shared retry loop: a short hot phase driven by the
// adaptive waiter policy, then capped decorrelated-jitter sleeps from
// the shared backoff package, which desynchronizes competing pollers
// instead of letting them re-collide on a fixed schedule. The deadline
// is an absolute instant on c.
func poll(try func() bool, c clock.Clock, deadline time.Duration) bool {
	w := waiter.NewClocked(waiter.PolicyAdaptive, c)
	c = clock.Or(c)
	var bo *backoff.Backoff
	for {
		if try() {
			return true
		}
		if w.Spins() < pollSpinBudget {
			if !w.PauseBounded(deadline) {
				return false
			}
			continue
		}
		// Escalated phase: decorrelated-jitter sleeps, clamped to the
		// deadline. Each sleep is a park in the waiter's transition
		// taxonomy.
		if bo == nil {
			bo = backoff.New(pollDefaults, pollSeq.Add(1))
		}
		rem := deadline - c.Now()
		if rem <= 0 {
			return false
		}
		if s := w.Sink(); s != nil {
			s.CountPark()
		}
		c.Sleep(min(bo.Next(), rem))
	}
}
