// Package clock is the repository's virtual-time substrate: every
// timing-dependent layer (waiting, backoff sleeps, bounded-acquisition
// deadlines, chaos delay injection, telemetry timestamps, lease
// clients) reads time and sleeps through a small Clock interface
// instead of calling the time package directly, so the same lock
// algorithms run against the wall clock in production and against a
// deterministic, manually- or runner-advanced virtual clock in tests.
//
// Two implementations:
//
//   - Wall: the process clock. Now is monotonic nanoseconds since
//     process start (the same epoch trick lockstat's timestamps used);
//     Sleep and ParkFor are the real primitives. This is the
//     zero-value default everywhere: locks carry a nil Clock and treat
//     it as Wall, so injection costs nothing when unused.
//   - Virtual (virtual.go): a discrete-event clock modeled on
//     internal/cluster's event heap. Time advances only when something
//     advances it — manually (Advance) or by the runner (Go/Run),
//     which steps time to the next timer deadline whenever every
//     registered worker goroutine is blocked in a virtual wait. Same
//     seed ⇒ same schedule ⇒ byte-identical traces.
//
// Time is expressed as time.Duration since the clock's epoch rather
// than time.Time: a virtual clock has no wall anchoring, and duration
// arithmetic (deadline = Now() + d) is branch-free and allocation-free
// on the hot bounded-acquisition paths.
//
// A custom lint (lint_test.go) forbids direct time.Now / time.Sleep /
// time.After / timer construction outside this package and
// internal/harness, so no layer can silently reattach itself to the
// wall clock.
package clock

import (
	"sync"
	"time"
)

// Clock is the time source abstraction.
//
// Now returns monotonic elapsed time since the clock's epoch. Sleep
// blocks the caller for d. NewTimer returns a cancellable one-shot
// timer (After with cancel). ParkFor is the park/unpark-compatible
// wait primitive the waiting layer (internal/waiter, internal/futex)
// blocks on: it parks the caller for up to d, unparked early when done
// becomes ready, and reports whether the full duration elapsed (false
// means done fired first). d <= 0 parks unboundedly on done alone.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
	NewTimer(d time.Duration) Timer
	ParkFor(d time.Duration, done <-chan struct{}) bool
}

// Timer is a cancellable one-shot timer. C is closed when the timer
// fires; Stop cancels the timer and reports whether it did so before
// the fire (false means C is, or is about to be, closed).
type Timer interface {
	C() <-chan struct{}
	Stop() bool
}

// Or returns c, or Wall when c is nil — the idiom for the nil-default
// clock fields lock structs carry.
func Or(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

// Deadline converts a wall-clock time.Time deadline (as carried by
// context.Context) into an absolute instant on c: the wall time
// remaining, re-anchored at c.Now(). Exact for Wall; for a virtual
// clock it interprets the remaining wall duration as virtual duration,
// which is the only meaningful reading a wall-anchored context has
// there. Returns 0 (the "no deadline" sentinel) only for the zero
// time.Time.
func Deadline(c Clock, t time.Time) time.Duration {
	if t.IsZero() {
		return 0
	}
	d := c.Now() + time.Until(t)
	if d == 0 {
		// An exactly-at-epoch result would read as "no deadline";
		// nudge to the earliest expressible expired instant.
		d = -1
	}
	return d
}

// Wall is the process wall clock (monotonic, epoch = package init).
var Wall Clock = wallClock{}

// wallEpoch anchors Wall.Now; time.Since uses the runtime's monotonic
// reading, so Wall.Now is immune to wall-time steps.
var wallEpoch = time.Now()

type wallClock struct{}

func (wallClock) Now() time.Duration { return time.Since(wallEpoch) }

func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

func (wallClock) NewTimer(d time.Duration) Timer {
	t := &wallTimer{c: make(chan struct{})}
	t.t = time.AfterFunc(d, t.fire)
	return t
}

// ParkFor parks on a real timer racing done. d <= 0 with a nil done
// would park forever with no waker, which is always a caller bug.
func (wallClock) ParkFor(d time.Duration, done <-chan struct{}) bool {
	if done == nil {
		if d <= 0 {
			panic("clock: unbounded ParkFor with no wake channel")
		}
		time.Sleep(d)
		return true
	}
	if d <= 0 {
		<-done
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// wallTimer adapts time.AfterFunc to the Timer contract. AfterFunc
// (rather than NewTimer plus a forwarding goroutine) means a stopped
// timer leaks nothing.
type wallTimer struct {
	mu      sync.Mutex
	t       *time.Timer
	c       chan struct{}
	fired   bool
	stopped bool
}

func (t *wallTimer) fire() {
	t.mu.Lock()
	if !t.stopped {
		t.fired = true
		close(t.c)
	}
	t.mu.Unlock()
}

func (t *wallTimer) C() <-chan struct{} { return t.c }

func (t *wallTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	t.t.Stop()
	return true
}
