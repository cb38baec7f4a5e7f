package core

import (
	"testing"
	"time"

	"repro/internal/bounded"
	"repro/internal/clock"
)

// Deterministic repros of the bounded-acquisition contract under
// clock.Virtual: every wait below is paced by the virtual clock, so the
// instant each LockFor returns is a function of the schedule alone.

// virtualBounded builds a natively bounded core lock on c, with a probe
// reporting whether its arrival word holds the LOCKEDEMPTY/NEMO
// sentinel. parks marks Park mode, whose unbounded Lock blocks in a
// futex outside the virtual clock.
type virtualBounded struct {
	name  string
	parks bool
	mk    func(c clock.Clock) (l bounded.Locker, sentinelTop func() bool)
}

func virtualBoundedLocks() []virtualBounded {
	return []virtualBounded{
		{"Recipro", false, func(c clock.Clock) (bounded.Locker, func() bool) {
			l := &Lock{Clk: c}
			return l, func() bool { return l.arrivals.Load() == &lockedEmptySentinel }
		}},
		{"Simplified", false, func(c clock.Clock) (bounded.Locker, func() bool) {
			l := &SimplifiedLock{Clk: c}
			return l, func() bool { return l.arrivals.Load() == nemo() }
		}},
		{"SimplifiedPark", true, func(c clock.Clock) (bounded.Locker, func() bool) {
			l := &SimplifiedLock{Clk: c, Park: true}
			return l, func() bool { return l.arrivals.Load() == nemo() }
		}},
	}
}

const (
	vBudget = time.Millisecond
	vHold   = 50 * time.Millisecond
	// vSlack is one clamped waiting step: the longest a waiter sleeps
	// between two looks at its gate and the arrival word.
	vSlack = 100 * time.Microsecond
)

// runVirtual drives v's workers to completion. A waiter blocked outside
// the clock (a futex wait with no timeout) stalls the runner for good,
// so a wall-clock guard turns that into a failure.
func runVirtual(t *testing.T, v *clock.Virtual) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- v.Run() }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("virtual schedule stalled: a waiter blocked outside the clock")
	}
}

// timedLockFor runs LockFor(d) on worker time and reports its result
// and the virtual time it took.
func timedLockFor(v *clock.Virtual, l bounded.Locker, d time.Duration, got *bool, took *time.Duration) {
	start := v.Now()
	*got = l.LockFor(d)
	*took = v.Now() - start
}

// checkGaveUp fails unless LockFor gave up after between d and
// d+vSlack, and the lock is free afterwards.
func checkGaveUp(t *testing.T, l bounded.Locker, got bool, took, d time.Duration) {
	t.Helper()
	if got {
		t.Fatal("LockFor acquired a held lock")
	}
	if took < d || took > d+vSlack {
		t.Fatalf("LockFor(%v) gave up after %v of virtual time, want within [%v, %v]", d, took, d, d+vSlack)
	}
	if !l.TryLock() {
		t.Fatal("lock not free after the schedule")
	}
	l.Unlock()
}

// A TryLock holder leaves the sentinel in the arrival word. A waiter
// that displaced it is the whole arrival segment and must still give up
// at its deadline, not at the holder's Unlock.
func TestBoundedGivesUpOverTryLockHolder(t *testing.T) {
	for _, vb := range virtualBoundedLocks() {
		t.Run(vb.name, func(t *testing.T) {
			v := clock.NewVirtual()
			l, sentinelTop := vb.mk(v)
			if !l.TryLock() {
				t.Fatal("TryLock failed on a free lock")
			}
			if !sentinelTop() {
				t.Fatal("TryLock holder did not leave the sentinel on top")
			}
			var got bool
			var took time.Duration
			v.Go(func() {
				v.Sleep(vHold)
				l.Unlock()
			})
			v.WaitBlocked(1)
			v.Go(func() { timedLockFor(v, l, vBudget, &got, &took) })
			runVirtual(t, v)
			checkGaveUp(t, l, got, took, vBudget)
		})
	}
}

// A holder granted by handoff at the end of its segment also holds with
// the sentinel in the arrival word (the detach installed it), and the
// waiter above it must likewise give up at its deadline.
func TestBoundedGivesUpOverHandoffHolder(t *testing.T) {
	for _, vb := range virtualBoundedLocks() {
		if vb.parks {
			continue // the handoff holder's own Lock parks off the clock
		}
		t.Run(vb.name, func(t *testing.T) {
			v := clock.NewVirtual()
			l, sentinelTop := vb.mk(v)
			var got, handoffTop bool
			var took time.Duration
			v.Go(func() {
				l.Lock()
				v.Sleep(100 * time.Microsecond)
				l.Unlock()
			})
			v.WaitBlocked(1)
			v.Go(func() {
				v.Sleep(10 * time.Microsecond)
				l.Lock() // queues behind the first holder, granted at its Unlock
				v.Sleep(vHold)
				l.Unlock()
			})
			v.WaitBlocked(2)
			v.Go(func() {
				v.Sleep(vBudget) // well after the handoff
				handoffTop = sentinelTop()
				timedLockFor(v, l, vBudget, &got, &took)
			})
			runVirtual(t, v)
			if !handoffTop {
				t.Fatal("handoff holder did not hold with the sentinel on top")
			}
			checkGaveUp(t, l, got, took, vBudget)
		})
	}
}

// A bounded waiter buried under a later one cannot self-remove at its
// own deadline: it gives up once the waiter above it has left (LIFO
// drain), by that waiter's deadline plus one waiting step. In Park mode
// the timed-out waiter keeps parking in slices, so it notices.
func TestBoundedBuriedWaiterLeavesAfterTheOneAbove(t *testing.T) {
	const below, above = 5 * time.Millisecond, 20 * time.Millisecond
	for _, vb := range virtualBoundedLocks() {
		t.Run(vb.name, func(t *testing.T) {
			v := clock.NewVirtual()
			l, _ := vb.mk(v)
			var gotBelow, gotAbove bool
			var tookBelow, tookAbove time.Duration
			v.Go(func() {
				l.Lock()
				v.Sleep(vHold)
				l.Unlock()
			})
			v.WaitBlocked(1)
			v.Go(func() { timedLockFor(v, l, below, &gotBelow, &tookBelow) })
			v.WaitBlocked(2) // arrived and waiting
			v.Go(func() { timedLockFor(v, l, above, &gotAbove, &tookAbove) })
			runVirtual(t, v)
			if gotBelow || gotAbove {
				t.Fatalf("a waiter acquired a held lock (below %v, above %v)", gotBelow, gotAbove)
			}
			if tookAbove < above || tookAbove > above+vSlack {
				t.Fatalf("top waiter gave up after %v, want within [%v, %v]", tookAbove, above, above+vSlack)
			}
			if tookBelow < above || tookBelow > above+2*vSlack {
				t.Fatalf("buried waiter gave up after %v, want once the waiter above left: within [%v, %v]",
					tookBelow, above, above+2*vSlack)
			}
			if !l.TryLock() {
				t.Fatal("lock not free after the schedule")
			}
			l.Unlock()
		})
	}
}
