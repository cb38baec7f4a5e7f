package waiter

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestBackoffBounded(t *testing.T) {
	w := New(PolicyBackoff)
	start := time.Now()
	for i := 0; i < 12; i++ {
		w.Pause()
	}
	// Sum of capped exponential sleeps stays well under a second.
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("backoff slept %v", el)
	}
}

func TestPauseCountsSpins(t *testing.T) {
	for _, p := range []Policy{PolicySpin, PolicyYield, PolicyAdaptive, PolicyBackoff} {
		w := New(p)
		for i := 0; i < 10; i++ {
			w.Pause()
		}
		if got := w.Spins(); got != 10 {
			t.Errorf("policy %v: Spins() = %d, want 10", p, got)
		}
		w.Reset()
		if got := w.Spins(); got != 0 {
			t.Errorf("policy %v: Spins() after Reset = %d, want 0", p, got)
		}
	}
}

// A waiter must allow another goroutine to make progress even on a
// single-processor scheduler: spin on a flag set by a second goroutine.
func TestPauseAllowsProgress(t *testing.T) {
	for _, p := range []Policy{PolicySpin, PolicyYield, PolicyAdaptive} {
		var flag atomic.Bool
		done := make(chan struct{})
		go func() {
			flag.Store(true)
			close(done)
		}()
		w := New(p)
		deadline := time.Now().Add(10 * time.Second)
		for !flag.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("policy %v: flag never observed", p)
			}
			w.Pause()
		}
		<-done
	}
}

func TestAdaptiveEscalatesWithoutPanic(t *testing.T) {
	w := New(PolicyAdaptive)
	// Drive the waiter well past the sleep threshold; the sleep cap
	// keeps this fast.
	start := time.Now()
	for i := 0; i < spinBudget+yieldBudget+5; i++ {
		w.Pause()
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("adaptive waiter slept far too long")
	}
}

func TestZeroValueWaiterUsable(t *testing.T) {
	var w Waiter
	w.Pause()
	if w.Spins() != 1 {
		t.Fatalf("zero-value waiter Spins() = %d, want 1", w.Spins())
	}
}

// recordingSink logs every transition callback in order. Single-
// goroutine use only.
type recordingSink struct {
	events []byte // 's' spin, 'y' yield, 'p' park
}

func (r *recordingSink) CountSpin()  { r.events = append(r.events, 's') }
func (r *recordingSink) CountYield() { r.events = append(r.events, 'y') }
func (r *recordingSink) CountPark()  { r.events = append(r.events, 'p') }

func (r *recordingSink) count(c byte) int {
	n := 0
	for _, e := range r.events {
		if e == c {
			n++
		}
	}
	return n
}

// Every Pause must report exactly one transition, with per-policy
// counts matching the documented escalation schedule.
func TestSinkTransitionCounts(t *testing.T) {
	cases := []struct {
		name                 string
		policy               Policy
		pauses               int
		spins, yields, parks int
	}{
		// Adaptive: pauses 1..31 spin, 32..95 yield, 96.. park.
		{"Adaptive/spin-phase", PolicyAdaptive, spinBudget - 1, spinBudget - 1, 0, 0},
		{"Adaptive/yield-phase", PolicyAdaptive, spinBudget + 10, spinBudget - 1, 11, 0},
		// Park phase begins at pause spinBudget+yieldBudget (the first
		// pause past both budgets), so 5 extra pauses park 6 times.
		{"Adaptive/park-phase", PolicyAdaptive, spinBudget + yieldBudget + 5, spinBudget - 1, yieldBudget, 6},
		// Spin: every spinBudget-th pause yields, the rest spin hot.
		{"Spin", PolicySpin, 2 * spinBudget, 2*spinBudget - 2, 2, 0},
		// Yield: every pause yields.
		{"Yield", PolicyYield, 10, 0, 10, 0},
		// Backoff: every pause is a (sleeping) park.
		{"Backoff", PolicyBackoff, 5, 0, 0, 5},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rec := &recordingSink{}
			w := NewWithSink(c.policy, rec)
			for i := 0; i < c.pauses; i++ {
				w.Pause()
			}
			if len(rec.events) != c.pauses {
				t.Fatalf("%d events for %d pauses — hooks must fire exactly once per transition", len(rec.events), c.pauses)
			}
			if s, y, p := rec.count('s'), rec.count('y'), rec.count('p'); s != c.spins || y != c.yields || p != c.parks {
				t.Errorf("spin/yield/park = %d/%d/%d, want %d/%d/%d", s, y, p, c.spins, c.yields, c.parks)
			}
		})
	}
}

// The adaptive policy must escalate monotonically: all spins strictly
// before the first yield, all yields strictly before the first park.
func TestAdaptiveTransitionOrdering(t *testing.T) {
	rec := &recordingSink{}
	w := NewWithSink(PolicyAdaptive, rec)
	for i := 0; i < spinBudget+yieldBudget+10; i++ {
		w.Pause()
	}
	phase := 0 // 0 spin, 1 yield, 2 park
	order := map[byte]int{'s': 0, 'y': 1, 'p': 2}
	for i, e := range rec.events {
		p := order[e]
		if p < phase {
			t.Fatalf("event %d: %q regresses from phase %d — order must be spin→yield→park", i, e, phase)
		}
		phase = p
	}
	if phase != 2 {
		t.Fatalf("escalation ended in phase %d, never parked", phase)
	}
}

// Reset starts a new episode (hot again) but keeps the attached sink.
func TestResetKeepsSink(t *testing.T) {
	rec := &recordingSink{}
	w := NewWithSink(PolicyAdaptive, rec)
	for i := 0; i < spinBudget+yieldBudget; i++ {
		w.Pause()
	}
	if rec.count('p') != 1 {
		t.Fatalf("parks before reset = %d, want 1", rec.count('p'))
	}
	w.Reset()
	rec.events = nil
	w.Pause()
	if len(rec.events) != 1 || rec.events[0] != 's' {
		t.Fatalf("first pause after Reset = %q, want spin (hot restart with sink attached)", rec.events)
	}
}

// New must pick up the global sink at construction; SetSink(nil)
// uninstalls it.
func TestGlobalSinkPickup(t *testing.T) {
	rec := &recordingSink{}
	SetSink(rec)
	defer SetSink(nil)
	w := New(PolicyYield)
	w.Pause()
	if rec.count('y') != 1 {
		t.Fatalf("yield not reported to global sink: %q", rec.events)
	}
	if ActiveSink() == nil {
		t.Fatal("ActiveSink() = nil while installed")
	}
	SetSink(nil)
	if ActiveSink() != nil {
		t.Fatal("ActiveSink() non-nil after uninstall")
	}
	w2 := New(PolicyYield)
	w2.Pause()
	if rec.count('y') != 1 {
		t.Fatal("waiter constructed after uninstall still reports")
	}
	// A waiter constructed while the sink was installed keeps it for
	// its whole episode (sink capture is per-construction).
	w.Pause()
	if rec.count('y') != 2 {
		t.Fatal("pre-uninstall waiter lost its captured sink")
	}
}

// PauseBounded with no budget at all must never report exhaustion.
func TestPauseBoundedUnbounded(t *testing.T) {
	w := New(PolicyAdaptive)
	for i := 0; i < 500; i++ {
		if !w.PauseBounded(0) {
			t.Fatal("PauseBounded with no deadline reported exhaustion")
		}
	}
}

// A deadline in the past must be detected within one spin stride, and
// a live deadline must be detected soon after it passes: the waiter
// may overshoot by sleep clamping and stride granularity but not by
// a large factor.
func TestPauseBoundedDeadline(t *testing.T) {
	w := New(PolicyAdaptive)
	expired := clock.Wall.Now() - time.Millisecond
	for i := 0; i < deadlineStride+1; i++ {
		if !w.PauseBounded(expired) {
			if i == 0 {
				t.Log("expired deadline detected on first pause")
			}
			goto detected
		}
	}
	t.Fatal("expired deadline not detected within one stride")
detected:

	w.Reset()
	const budget = 50 * time.Millisecond
	deadline := clock.Wall.Now() + budget
	start := time.Now()
	for w.PauseBounded(deadline) {
		if time.Since(start) > 10*budget {
			t.Fatal("deadline overshot by 10x")
		}
	}
	if el := time.Since(start); el > 3*budget {
		t.Fatalf("deadline %v detected after %v", budget, el)
	}
}

// Sleeps must be clamped to the remaining budget: with a deadline just
// ahead, a deeply escalated waiter (which would normally sleep 100us
// per pause) must still return close to the deadline.
func TestPauseBoundedClampsSleep(t *testing.T) {
	w := New(PolicyAdaptive)
	// Escalate far past the spin and yield budgets.
	for i := 0; i < 400; i++ {
		w.Pause()
	}
	const budget = 5 * time.Millisecond
	deadline := clock.Wall.Now() + budget
	start := time.Now()
	for w.PauseBounded(deadline) {
	}
	if el := time.Since(start); el > 20*budget {
		t.Fatalf("escalated waiter overshot %v deadline by %v", budget, el)
	}
}
