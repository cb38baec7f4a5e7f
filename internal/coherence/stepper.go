package coherence

import "fmt"

// Stepper drives simulated threads one memory operation at a time under
// external control. Where Scheduler.Run owns the interleaving policy
// for a whole run, a Stepper inverts control: the caller decides which
// thread performs its next operation and when, which lets a test
// harness interleave simulated execution with events it injects from
// outside the simulated machine (the differential conformance checker
// drives a sim lock and a real lock through one shared event script
// this way).
//
// The Stepper takes the Scheduler's own step, so simulated code
// behaves identically: SpinUntil parks threads on lines, writes wake
// parked threads on the same cache line, AwaitWrite's ready predicate
// is evaluated atomically with parking, and Ctx.Admit records
// admission order.
type Stepper struct {
	sched *Scheduler
}

// NewStepper creates a stepper over sys with one simulated thread per
// body; len(bodies) must equal sys.CPUs(). maxSteps bounds the total
// operation count (0 selects a large default); exceeding it panics,
// converting livelock into a loud failure. Each thread runs up to its
// first operation and waits there.
func NewStepper(sys *System, maxSteps uint64, bodies []func(c *Ctx)) *Stepper {
	if len(bodies) != sys.CPUs() {
		panic(fmt.Sprintf("coherence: %d bodies for %d CPUs", len(bodies), sys.CPUs()))
	}
	st := &Stepper{sched: NewScheduler(sys, RoundRobin, DefaultCosts, 1, maxSteps)}
	st.sched.start(bodies)
	return st
}

// Threads reports the number of simulated threads.
func (st *Stepper) Threads() int { return len(st.sched.threads) }

// Finished reports whether thread id's body has returned.
func (st *Stepper) Finished(id int) bool { return st.sched.threads[id].finished }

// Blocked reports whether thread id is parked on a line awaiting a
// write (SpinUntil or AwaitWrite).
func (st *Stepper) Blocked(id int) bool { return st.sched.threads[id].blockedOn != 0 }

// Runnable reports whether thread id can perform another operation.
func (st *Stepper) Runnable(id int) bool { return st.sched.threads[id].runnable() }

// Step runs exactly one memory operation (or the body's return) of
// thread id. Calling Step on a non-runnable thread is a harness bug and
// panics.
func (st *Stepper) Step(id int) {
	t := st.sched.threads[id]
	if !t.runnable() {
		panic(fmt.Sprintf("coherence: Step(%d) on non-runnable thread", id))
	}
	st.sched.step(t)
}

// Poke performs a harness-level write: it sets a's value directly
// (outside the coherence cost model, like System.InitValue) and wakes
// threads parked on a's line. The conformance driver uses it to signal
// simulated threads from outside the machine — e.g. to release a
// critical-section hold gate.
func (st *Stepper) Poke(a Addr, v uint64) {
	st.sched.sys.InitValue(a, v)
	st.sched.wake(a, nil)
	st.sched.resumeWoken()
}

// Admissions returns a copy of the admission order recorded by
// Ctx.Admit so far.
func (st *Stepper) Admissions() []int {
	return append([]int(nil), st.sched.admissions...)
}

// Steps reports the total operations performed so far.
func (st *Stepper) Steps() uint64 { return st.sched.steps }
