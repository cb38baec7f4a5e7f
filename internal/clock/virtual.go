package clock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event clock: pending timers are
// a min-heap ordered by (deadline, registration sequence), so two
// timers due at the same instant fire in registration order — a
// deterministic tiebreak instead of a scheduler race.
//
// Time never advances on its own. Two driving modes:
//
//   - Manual: the test calls Advance; due timers fire (and
//     sleepers wake) in heap order as the clock steps through them.
//   - Runner: worker goroutines are registered with Go, and Run steps
//     the clock whenever every live worker is blocked in a virtual
//     wait (Sleep / ParkFor / a fired-for timer), firing exactly one
//     timer per step. One-at-a-time firing means two workers due at
//     the same instant wake sequentially in registration order, so a
//     schedule's visible outcomes (who acquired, who timed out, at
//     which virtual instant) are functions of the schedule alone.
//
// The zero value is not ready; use NewVirtual.
type Virtual struct {
	mu   sync.Mutex
	cond *sync.Cond

	now time.Duration
	seq uint64
	h   vheap

	workers int // live worker goroutines registered via Go
	blocked int // workers currently inside a virtual wait
}

// NewVirtual returns a virtual clock at instant 0 with no pending
// timers.
func NewVirtual() *Virtual {
	v := &Virtual{}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// vtimer is one heap entry. sleeper marks waits that count toward the
// runner's blocked tally (Sleep, ParkFor); firing one of those
// transfers its blocked slot back to the runner atomically with the
// fire, so the runner can never step twice into the same wake.
type vtimer struct {
	owner   *Virtual
	when    time.Duration
	seq     uint64
	idx     int // heap index; -1 once fired or stopped
	sleeper bool
	c       chan struct{}
}

func (t *vtimer) C() <-chan struct{} { return t.c }

// Stop cancels the timer, reporting whether it did so before the fire.
func (t *vtimer) Stop() bool { return t.owner.stop(t) }

var _ Timer = (*vtimer)(nil)

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// NewTimer registers a one-shot timer due at Now()+d (due immediately
// at the current instant for d <= 0 — it still waits for the next
// advance, making a zero-duration timer a deterministic scheduling
// point rather than a no-op).
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	t := v.newTimerLocked(d, false)
	v.mu.Unlock()
	return t
}

func (v *Virtual) newTimerLocked(d time.Duration, sleeper bool) *vtimer {
	if d < 0 {
		d = 0
	}
	v.seq++
	t := &vtimer{when: v.now + d, seq: v.seq, sleeper: sleeper, c: make(chan struct{}), owner: v}
	heap.Push(&v.h, t)
	v.cond.Broadcast()
	return t
}

func (v *Virtual) stop(t *vtimer) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.idx < 0 {
		return false
	}
	heap.Remove(&v.h, t.idx)
	t.idx = -1
	return true
}

// Sleep blocks the caller until the virtual clock advances to
// Now()+d. Sleep(0) blocks until the next advance — a deterministic
// scheduling point, unlike time.Sleep(0).
func (v *Virtual) Sleep(d time.Duration) {
	v.mu.Lock()
	t := v.newTimerLocked(d, true)
	v.blocked++
	v.cond.Broadcast()
	v.mu.Unlock()
	<-t.c
}

// ParkFor parks the caller until the clock advances past d or done
// becomes ready, whichever is first; it reports whether the full
// duration elapsed. d <= 0 parks unboundedly on done.
//
// When the timer fire and done race, the winner is the select winner.
// The only such race left on a virtual clock is a futex park
// (futex.WaitTimeoutClock, whose done is its wake channel): bounded
// waits and polling sleep on the clock alone, so their give-up is a
// plain deadline comparison. Deterministic schedules must resolve a
// futex wake and its expiry at distinct instants.
func (v *Virtual) ParkFor(d time.Duration, done <-chan struct{}) bool {
	if d <= 0 {
		if done == nil {
			panic("clock: unbounded ParkFor with no wake channel")
		}
		v.mu.Lock()
		v.blocked++
		v.cond.Broadcast()
		v.mu.Unlock()
		<-done
		v.mu.Lock()
		v.blocked--
		v.mu.Unlock()
		return false
	}
	v.mu.Lock()
	t := v.newTimerLocked(d, true)
	v.blocked++
	v.cond.Broadcast()
	v.mu.Unlock()
	if done == nil {
		<-t.c
		return true
	}
	select {
	case <-t.c:
		return true
	case <-done:
		v.mu.Lock()
		if t.idx >= 0 {
			// Unfired: withdraw the timer and reclaim our blocked slot
			// (a fired timer already handed it to the advancer).
			heap.Remove(&v.h, t.idx)
			t.idx = -1
			v.blocked--
		}
		v.mu.Unlock()
		return false
	}
}

// fireLocked pops and fires the earliest timer, advancing now to its
// deadline. Callers hold v.mu.
func (v *Virtual) fireLocked() {
	t := heap.Pop(&v.h).(*vtimer)
	t.idx = -1
	if t.when > v.now {
		v.now = t.when
	}
	if t.sleeper {
		v.blocked--
	}
	close(t.c)
}

// Advance moves the clock forward by d, firing every timer due on the
// way in (deadline, registration) order, and returns how many fired.
// Advance(0) fires timers due at exactly the current instant. Manual
// driving only — the runner (Run) advances by itself.
func (v *Virtual) Advance(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	target := v.now + d
	fired := 0
	for len(v.h) > 0 && v.h[0].when <= target {
		v.fireLocked()
		fired++
	}
	v.now = target
	return fired
}

// Step fires exactly the earliest pending timer (advancing the clock
// to its deadline) and reports that deadline; ok is false, and the
// clock unmoved, when no timer is pending. Manual driving's
// fine-grained form: same-instant timers fire one Step at a time, in
// registration order.
func (v *Virtual) Step() (fired time.Duration, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.h) == 0 {
		return 0, false
	}
	when := v.h[0].when
	v.fireLocked()
	return when, true
}

// WaitBlocked blocks until at least n goroutines are inside virtual
// waits — the synchronization manual-mode tests need between starting
// sleepers and advancing the clock (registration order, and therefore
// same-instant tiebreak order, is then under the test's control).
func (v *Virtual) WaitBlocked(n int) {
	v.mu.Lock()
	for v.blocked < n {
		v.cond.Wait()
	}
	v.mu.Unlock()
}

// Go registers and starts one runner-driven worker goroutine. Workers
// may block on the clock (Sleep, ParkFor) and on each other's wakes;
// Run treats "every worker blocked in a virtual wait" as the signal to
// advance. A worker ends when f returns.
func (v *Virtual) Go(f func()) {
	v.mu.Lock()
	v.workers++
	v.mu.Unlock()
	go func() {
		defer func() {
			v.mu.Lock()
			v.workers--
			v.cond.Broadcast()
			v.mu.Unlock()
		}()
		f()
	}()
}

// Run drives the clock until every worker registered with Go has
// finished: whenever all live workers are blocked in virtual waits it
// fires exactly one timer (the earliest by (deadline, registration)),
// then waits for the woken worker to run until it blocks again,
// finishes, or wakes others. Returns an error if every worker is
// blocked with no pending timer — a deadlock no advance can resolve.
func (v *Virtual) Run() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.workers > 0 {
		if v.blocked == v.workers {
			if len(v.h) == 0 {
				return fmt.Errorf("clock: deadlock at %v: all %d workers parked, no pending timers", v.now, v.workers)
			}
			v.fireLocked()
			continue
		}
		v.cond.Wait()
	}
	return nil
}

// vheap is the (when, seq) min-heap of pending timers.
type vheap []*vtimer

func (h vheap) Len() int { return len(h) }
func (h vheap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h vheap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *vheap) Push(x any) {
	t := x.(*vtimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *vheap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
