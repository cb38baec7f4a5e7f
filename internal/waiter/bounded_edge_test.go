package waiter

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// Policies that poll the budget on every call (Yield yields each pause;
// Backoff sleeps each pause) must detect a long-expired deadline on the
// very first PauseBounded, without pausing at all.
func TestPauseBoundedNegativeDeadlineImmediate(t *testing.T) {
	for _, p := range []Policy{PolicyYield, PolicyBackoff} {
		rec := &recordingSink{}
		w := NewWithSink(p, rec)
		if w.PauseBounded(clock.Wall.Now() - time.Hour) {
			t.Fatalf("policy %v: expired deadline not detected on first call", p)
		}
		if len(rec.events) != 0 {
			t.Fatalf("policy %v: exhausted return still paused (%q)", p, rec.events)
		}
	}
}

// Sink discipline under PauseBounded: every true return pauses exactly
// once (one transition), and an exhausted (false) return pauses zero
// times — the caller is about to abandon and must not be charged a
// transition that never happened.
func TestPauseBoundedSinkTransitionOrdering(t *testing.T) {
	rec := &recordingSink{}
	w := NewWithSink(PolicyAdaptive, rec)
	const calls = spinBudget + yieldBudget + 10
	for i := 0; i < calls; i++ {
		if !w.PauseBounded(0) {
			t.Fatal("unbounded episode reported exhaustion")
		}
	}
	if len(rec.events) != calls {
		t.Fatalf("%d transitions for %d bounded pauses — must be exactly one each", len(rec.events), calls)
	}
	// Same escalation order as Pause: spins, then yields, then parks.
	phase, order := 0, map[byte]int{'s': 0, 'y': 1, 'p': 2}
	for i, e := range rec.events {
		if order[e] < phase {
			t.Fatalf("event %d: %q regresses the spin→yield→park escalation", i, e)
		}
		phase = order[e]
	}

	before := len(rec.events)
	if w.PauseBounded(clock.Wall.Now() - time.Minute) {
		t.Fatal("escalated waiter missed an expired deadline")
	}
	if len(rec.events) != before {
		t.Fatal("exhausted PauseBounded still reported a transition")
	}
}

// A zero deadline is "no time bound", not "expired at the epoch": the
// episode must keep going indefinitely even for policies that poll
// every call.
func TestPauseBoundedZeroDeadlineMeansUnbounded(t *testing.T) {
	w := NewWithSink(PolicyYield, nil)
	for i := 0; i < 200; i++ {
		if !w.PauseBounded(0) {
			t.Fatal("zero deadline treated as a bound")
		}
	}
}
