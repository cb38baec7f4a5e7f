// Package bounded defines the repository's cancellable-acquisition
// contract: every lock that can give up on an acquisition — by
// deadline (LockFor) or by context (LockCtx) — implements Locker.
//
// Two implementation tiers exist:
//
//   - Native: the canonical Reciprocating variants (internal/core Lock
//     and SimplifiedLock) and the queue baselines (internal/locks MCS,
//     CLH) implement bounded acquisition inside the algorithm, with
//     safe abandonment of an already-published waiter; TAS/TTAS/ticket
//     implement it as deadline-aware spinning on the try path.
//   - Polling: any lock exposing TryLock gains LockFor/LockCtx by
//     retrying TryLock under a deadline-aware waiter pause (PollFor,
//     PollCtx; registry.WithBounded applies them). Polling acquisition
//     barges (it never enters the lock's queue), so it trades the
//     lock's admission order for the ability to abandon instantly;
//     that is the standard fallback trade-off (cf.
//     pthread_mutex_timedlock over try-loops).
package bounded

import (
	"context"
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
// fully usable by other goroutines.
//
// LockCtx acquires the lock unless ctx is cancelled or its deadline
// passes first, returning nil exactly when the lock was acquired and
// the context's error otherwise. A waiter that loses the race between
// cancellation and a lock grant releases the lock before reporting
// failure — it never returns non-nil while holding the lock.
type Locker interface {
	TryLocker
	LockFor(d time.Duration) bool
	LockCtx(ctx context.Context) error
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
	return poll(try, c, clock.Or(c).Now()+d, nil)
}

// PollCtx is LockCtx over a bare try doorway: retries until ctx is done.
func PollCtx(try func() bool, c clock.Clock, ctx context.Context) error {
	return CtxFrom(c, ctx, func(deadline time.Duration, done <-chan struct{}) bool {
		return poll(try, c, deadline, done)
	})
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
// the shared backoff package (the same policy the cluster simulation's
// lease client retries under), which desynchronizes competing pollers
// instead of letting them re-collide on a fixed schedule. The deadline
// is an absolute instant on c; zero means unbounded.
func poll(try func() bool, c clock.Clock, deadline time.Duration, done <-chan struct{}) bool {
	w := waiter.NewClocked(waiter.PolicyAdaptive, c)
	c = clock.Or(c)
	var bo *backoff.Backoff
	for {
		if try() {
			return true
		}
		if w.Spins() < pollSpinBudget {
			if !w.PauseBounded(deadline, done) {
				return false
			}
			continue
		}
		// Escalated phase: decorrelated-jitter sleeps, clamped to the
		// deadline and interruptible by done. Each sleep is a park in
		// the waiter's transition taxonomy.
		if bo == nil {
			bo = backoff.New(pollDefaults, pollSeq.Add(1))
		}
		d := bo.Next()
		if deadline != 0 {
			rem := deadline - c.Now()
			if rem <= 0 {
				return false
			}
			if d > rem {
				d = rem
			}
		}
		if s := w.Sink(); s != nil {
			s.CountPark()
		}
		if !c.ParkFor(d, done) {
			return false
		}
	}
}

// CtxFrom adapts a lock's deadline/done-aware bounded acquire into the
// LockCtx surface: it maps the context onto (deadline, done) — the
// deadline re-anchored as an absolute instant on c (nil = Wall) via
// clock.Deadline — runs the acquire, and converts a false return into
// the context's error. The native implementations in internal/core and
// internal/locks share this glue.
func CtxFrom(c clock.Clock, ctx context.Context, lockBounded func(deadline time.Duration, done <-chan struct{}) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var deadline time.Duration
	if t, ok := ctx.Deadline(); ok {
		deadline = clock.Deadline(clock.Or(c), t)
	}
	if lockBounded(deadline, ctx.Done()) {
		return nil
	}
	return ctxError(ctx)
}

// ctxError returns ctx's error, defaulting to DeadlineExceeded for the
// skew window where the deadline has passed by our clock but the
// context's own timer has not fired yet.
func ctxError(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}
