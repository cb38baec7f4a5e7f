// Package waiter provides busy-wait ("Pause") policies for spin locks.
//
// The paper assumes a "polite" Pause() operator (x86 PAUSE / ARM YIELD)
// inside every busy-wait loop. Under the Go runtime — and in particular
// under GOMAXPROCS values smaller than the number of runnable
// goroutines — pure spinning starves the lock holder of a processor, so
// every practical policy here eventually yields to the scheduler.
//
// Three policies are provided:
//
//   - Spin: bounded hot spinning followed by runtime.Gosched. The
//     default; closest in spirit to PAUSE loops while remaining safe on
//     oversubscribed schedulers.
//   - Yield: immediate runtime.Gosched on every pause. Fastest handoff
//     when GOMAXPROCS == 1.
//   - Adaptive: spins hot while the number of pauses is small, then
//     yields, then sleeps in escalating increments. Robust default for
//     unknown oversubscription.
//
// Policies are expressed as small value types so that lock hot paths
// can inline the Pause call; a Waiter is cheap to construct per
// acquisition and holds only an iteration counter.
package waiter

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/clock"
)

// Sink receives one callback per Pause, classified by what the pause
// actually did: a hot spin (CountSpin), a scheduler yield
// (CountYield), or a blocking wait — sleep or futex park —
// (CountPark). Counting here, at the policy layer, means no lock
// algorithm carries instrumentation in its own hot path; the telemetry
// package (internal/lockstat) implements Sink with atomic counters.
//
// Implementations must be safe for concurrent use: many waiters on
// many goroutines report to the same sink.
type Sink interface {
	CountSpin()
	CountYield()
	CountPark()
}

// sinkBox wraps a Sink so the global slot can distinguish "no sink"
// (nil box) from a cleared sink without atomic.Value's non-nil rule.
type sinkBox struct{ s Sink }

var globalSink atomic.Pointer[sinkBox]

// SetSink installs s as the process-wide transition sink picked up by
// every subsequently constructed Waiter (nil uninstalls). Benchmark
// harnesses install the Stats of the lock currently under measurement
// around each run; attribution is therefore per-installation-window,
// which is exact when one lock is hot at a time.
func SetSink(s Sink) {
	if s == nil {
		globalSink.Store(nil)
		return
	}
	globalSink.Store(&sinkBox{s: s})
}

// ActiveSink returns the currently installed sink, or nil.
func ActiveSink() Sink {
	if b := globalSink.Load(); b != nil {
		return b.s
	}
	return nil
}

// Policy selects a busy-wait strategy.
type Policy int

const (
	// PolicyAdaptive spins briefly, then yields, then sleeps.
	PolicyAdaptive Policy = iota
	// PolicySpin spins hot for a fixed budget between yields.
	PolicySpin
	// PolicyYield yields to the scheduler on every pause.
	PolicyYield
	// PolicyBackoff sleeps for exponentially growing, capped
	// intervals — the classic randomized-backoff discipline the paper
	// rejects as not work conserving ("backoff delays ... constitute
	// dead time", §5). Provided as the contrast arm for ablations.
	PolicyBackoff
)

// spinBudget is the number of hot iterations performed before the
// first yield under PolicySpin and PolicyAdaptive.
const spinBudget = 32

// yieldBudget is the number of Gosched calls performed by
// PolicyAdaptive before it escalates to sleeping.
const yieldBudget = 64

// backoffSchedule is PolicyBackoff's capped-doubling schedule,
// expressed through the shared backoff package so one implementation
// of the math serves every retry path in the repository.
var backoffSchedule = backoff.Policy{Base: time.Microsecond, Cap: 256 * time.Microsecond}

// Waiter tracks progress of one waiting episode. The zero value is
// ready to use (reports to no sink, sleeps on the wall clock).
type Waiter struct {
	policy Policy
	n      int
	sink   Sink
	clk    clock.Clock // nil = clock.Wall
}

// New returns a Waiter implementing the given policy, attached to the
// process-wide sink installed at construction time (if any).
func New(p Policy) Waiter { return Waiter{policy: p, sink: ActiveSink()} }

// NewClocked is New with an injected time source: parks sleep on c and
// bounded deadlines are instants on c. A nil c selects clock.Wall, so
// locks can pass their (normally nil) clock field straight through.
func NewClocked(p Policy, c clock.Clock) Waiter {
	return Waiter{policy: p, sink: ActiveSink(), clk: c}
}

// NewWithSink returns a Waiter reporting transitions to s, bypassing
// the global sink. Intended for tests and for callers that already
// hold a per-lock Stats.
func NewWithSink(p Policy, s Sink) Waiter { return Waiter{policy: p, sink: s} }

// Pause performs one unit of polite waiting, escalating according to
// the policy as the episode lengthens. Each call reports exactly one
// transition (spin, yield, or park) to the attached sink. It is
// PauseBounded with no budget.
func (w *Waiter) Pause() { w.PauseBounded(0) }

// plan computes the next pause step for the current policy without
// performing it: d > 0 means sleep d, else yield selects a scheduler
// yield, else a hot spin.
func (w *Waiter) plan() (d time.Duration, yield bool) {
	switch w.policy {
	case PolicyYield:
		return 0, true
	case PolicyBackoff:
		// Exponential backoff: 1µs doubling to a 256µs cap (the capped
		// doubling is backoff.Policy.Exp, shared with the retry path in
		// internal/bounded). Any time between the lock becoming free
		// and the sleep expiring is dead time — the §5 objection.
		return backoffSchedule.Exp(w.n), false
	case PolicySpin:
		if w.n%spinBudget == 0 {
			return 0, true
		}
		return 0, false
	default: // PolicyAdaptive
		switch {
		case w.n < spinBudget:
			return 0, false
		case w.n < spinBudget+yieldBudget:
			return 0, true
		default:
			// Escalate to short sleeps; cap the sleep so that a
			// missed wakeup is bounded-cost.
			d := time.Duration(w.n-spinBudget-yieldBudget) * time.Microsecond
			if d > 100*time.Microsecond {
				d = 100 * time.Microsecond
			}
			if d <= 0 {
				// First park step: a minimal sleep, so the transition
				// still classifies (and counts) as a park.
				d = 1
			}
			return d, false
		}
	}
}

// deadlineStride is how many hot-spin pauses elapse between budget
// checks in PauseBounded. Reading the clock every iteration would
// dominate a short spin; checking every stride keeps the bounded wait
// within one stride of the unbounded wait's cost while bounding
// detection latency to a few dozen spins.
const deadlineStride = 16

// PauseBounded performs one unit of polite waiting within a budget. It
// follows the policy's escalation schedule, clamps sleeps to the time
// remaining, and checks the deadline before pausing: on every step
// once the episode has escalated past hot spinning, and only at stride
// boundaries while still spinning hot, so bounded waiting stays off
// the fast path's critical cycle count. Each call reports one
// transition to the attached sink, like Pause.
//
// The deadline is an absolute instant on the waiter's clock; zero
// means no time bound. PauseBounded reports false, without pausing,
// once the deadline has passed, and the caller must then begin
// abandonment. It never reports false with no deadline.
func (w *Waiter) PauseBounded(deadline time.Duration) bool {
	w.n++
	d, yield := w.plan()
	if d > 0 || yield || w.n%deadlineStride == 0 {
		if deadline != 0 {
			rem := deadline - clock.Or(w.clk).Now()
			if rem <= 0 {
				return false
			}
			if d > rem {
				d = rem
			}
		}
	}
	switch {
	case d > 0:
		if w.sink != nil {
			w.sink.CountPark()
		}
		clock.Or(w.clk).Sleep(d)
	case yield:
		if w.sink != nil {
			w.sink.CountYield()
		}
		runtime.Gosched()
	default:
		if w.sink != nil {
			w.sink.CountSpin()
		}
		cpuRelax()
	}
	return true
}

// Reset rewinds the waiter so a new waiting episode starts hot. The
// attached sink is retained.
func (w *Waiter) Reset() { w.n = 0 }

// Spins reports the number of Pause calls performed this episode.
func (w *Waiter) Spins() int { return w.n }

// Sink returns the transition sink attached to this waiter, or nil.
// Locks that block outside Pause (futex-style parking) use it to
// report those parks through the same channel.
func (w *Waiter) Sink() Sink { return w.sink }

// cpuRelax burns a few cycles without touching shared memory. Go does
// not expose the PAUSE instruction; a short empty loop keeps the
// spinning core from saturating the load pipeline with the spin
// variable while remaining preemptible (Go 1.14+ async preemption).
//
//go:noinline
func cpuRelax() {
	for i := 0; i < 4; i++ {
		_ = i
	}
}
