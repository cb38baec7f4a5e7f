// Package waiter provides the busy-wait ("Pause") escalation every
// spin lock in this repository waits through.
//
// The paper assumes a "polite" Pause() operator (x86 PAUSE / ARM YIELD)
// inside every busy-wait loop. Under the Go runtime — and in particular
// under GOMAXPROCS values smaller than the number of runnable
// goroutines — pure spinning starves the lock holder of a processor, so
// the waiter eventually yields to the scheduler.
//
// There is one schedule: a waiting episode spins hot while the number
// of pauses is small, then yields, then sleeps in escalating, capped
// increments. The hot phase is the paper's polite spin; the sleep
// phase bounds the cost of oversubscription. The paper rejects
// backoff as dead time (§5), so nothing here sleeps while the episode
// is short.
//
// A Waiter is cheap to construct per acquisition and holds only an
// iteration counter, its sink and its clock.
package waiter

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Sink receives one callback per Pause, classified by what the pause
// actually did: a hot spin (CountSpin), a scheduler yield
// (CountYield), or a blocking wait — sleep or futex park —
// (CountPark). Counting here, in the waiter, means no lock algorithm
// carries instrumentation in its own hot path; the telemetry package
// (internal/lockstat) implements Sink with atomic counters.
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

// spinBudget is the number of hot iterations performed before the
// first yield.
const spinBudget = 32

// yieldBudget is the number of Gosched calls performed before the
// episode escalates to sleeping.
const yieldBudget = 64

// Waiter tracks progress of one waiting episode. The zero value is
// ready to use (reports to no sink, sleeps on the wall clock).
type Waiter struct {
	n    int
	sink Sink
	clk  clock.Clock // nil = clock.Wall
}

// New returns a Waiter attached to the process-wide sink installed at
// construction time (if any). Parks sleep on c and bounded deadlines
// are instants on c; a nil c selects clock.Wall, so locks can pass
// their (normally nil) clock field straight through.
func New(c clock.Clock) Waiter { return Waiter{sink: ActiveSink(), clk: c} }

// Pause performs one unit of polite waiting, escalating from spinning
// to yielding to sleeping as the episode lengthens. Each call reports
// exactly one transition (spin, yield, or park) to the attached sink.
// It is PauseBounded with no budget.
func (w *Waiter) Pause() { w.PauseBounded(0) }

// plan computes the next pause step without performing it: d > 0
// means sleep d, else yield selects a scheduler yield, else a hot
// spin.
func (w *Waiter) plan() (d time.Duration, yield bool) {
	switch {
	case w.n < spinBudget:
		return 0, false
	case w.n < spinBudget+yieldBudget:
		return 0, true
	default:
		// Escalate to short sleeps; cap the sleep so that a missed
		// wakeup is bounded-cost.
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

// deadlineStride is how many hot-spin pauses elapse between budget
// checks in PauseBounded. Reading the clock every iteration would
// dominate a short spin; checking every stride keeps the bounded wait
// within one stride of the unbounded wait's cost while bounding
// detection latency to a few dozen spins.
const deadlineStride = 16

// PauseBounded performs one unit of polite waiting within a budget. It
// follows the escalation schedule, clamps sleeps to the time
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
