package waiter

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// An expired deadline must be detected within one deadline stride
// while the episode still spins hot, and on the very first call once
// it has escalated (every yield or park step polls the budget). A
// false return pauses zero times, so it reports no transition: the
// caller is about to abandon and must not be charged a pause that
// never happened.
func TestPauseBoundedExpiredDeadline(t *testing.T) {
	expired := clock.Wall.Now() - time.Hour

	rec := &recordingSink{}
	w := Waiter{sink: rec}
	calls := 0
	for w.PauseBounded(expired) {
		if calls++; calls >= deadlineStride {
			t.Fatalf("hot episode missed an expired deadline for %d pauses", calls)
		}
	}
	if len(rec.events) != calls || rec.count('s') != calls {
		t.Fatalf("hot episode reported %q for %d completed pauses, want %d spins", rec.events, calls, calls)
	}

	for _, warm := range []int{spinBudget, spinBudget + yieldBudget} {
		rec := &recordingSink{}
		w := Waiter{sink: rec}
		for i := 0; i < warm; i++ {
			w.Pause()
		}
		if w.PauseBounded(expired) {
			t.Fatalf("waiter escalated by %d pauses missed an expired deadline on its first call", warm)
		}
		if len(rec.events) != warm {
			t.Fatalf("waiter escalated by %d pauses: exhausted PauseBounded reported a transition", warm)
		}
	}
}

// Sink discipline and escalation order under PauseBounded: every true
// return of an unbounded episode pauses exactly once (one transition),
// and the transitions escalate monotonically — all spins strictly
// before the first yield, all yields strictly before the first park —
// until the episode parks, the same schedule as Pause.
func TestPauseBoundedSinkTransitionOrdering(t *testing.T) {
	const calls = spinBudget + yieldBudget + 10
	rec := &recordingSink{}
	w := Waiter{sink: rec}
	for i := 0; i < calls; i++ {
		if !w.PauseBounded(0) {
			t.Fatal("unbounded episode reported exhaustion")
		}
	}
	if len(rec.events) != calls {
		t.Fatalf("%d transitions for %d bounded pauses — must be exactly one each", len(rec.events), calls)
	}
	phase, order := 0, map[byte]int{'s': 0, 'y': 1, 'p': 2}
	for i, e := range rec.events {
		if order[e] < phase {
			t.Fatalf("event %d: %q regresses the spin→yield→park escalation", i, e)
		}
		phase = order[e]
	}
	if phase != 2 {
		t.Fatalf("escalation ended in phase %d, never parked", phase)
	}
}

// A zero deadline is "no time bound", not "expired at the epoch": the
// episode must keep going indefinitely, also once it has escalated
// past hot spinning and polls the budget on every call.
func TestPauseBoundedZeroDeadlineMeansUnbounded(t *testing.T) {
	var w Waiter
	for i := 0; i < spinBudget; i++ {
		w.Pause()
	}
	for i := 0; i < 100; i++ {
		if !w.PauseBounded(0) {
			t.Fatal("zero deadline treated as a bound")
		}
	}
}
