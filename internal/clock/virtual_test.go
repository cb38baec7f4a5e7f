package clock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

func TestWallNowMonotone(t *testing.T) {
	a := Wall.Now()
	b := Wall.Now()
	if b < a {
		t.Fatalf("Wall.Now went backwards: %v then %v", a, b)
	}
}

func TestWallTimerFireAndStop(t *testing.T) {
	tm := Wall.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("wall timer never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire reported cancellation")
	}
	tm2 := Wall.NewTimer(time.Hour)
	if !tm2.Stop() {
		t.Fatal("Stop before fire reported false")
	}
	if tm2.Stop() {
		t.Fatal("second Stop reported true")
	}
}

func TestWallParkFor(t *testing.T) {
	if !Wall.ParkFor(time.Millisecond, nil) {
		t.Fatal("uninterrupted ParkFor reported early wake")
	}
	done := make(chan struct{})
	close(done)
	if Wall.ParkFor(time.Hour, done) {
		t.Fatal("ParkFor with ready done reported full elapse")
	}
	if Wall.ParkFor(0, done) {
		t.Fatal("unbounded ParkFor with ready done reported full elapse")
	}
}

func TestOrDefaultsToWall(t *testing.T) {
	if Or(nil) != Wall {
		t.Fatal("Or(nil) != Wall")
	}
	v := NewVirtual()
	if Or(v) != Clock(v) {
		t.Fatal("Or(v) != v")
	}
}

// waitLen blocks until the guarded slice reaches length n.
func waitLen(t *testing.T, mu *sync.Mutex, s *[]int, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := len(*s)
		mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d recorded wakes (have %d)", n, got)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// --- Virtual: manual advancement edges ---

func TestVirtualAdvanceFiresInOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	sleep := func(id int, d time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Sleep(d)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}()
		v.WaitBlocked(id) // serialize registration: ids are 1-based
	}
	sleep(1, 30*time.Millisecond)
	sleep(2, 10*time.Millisecond)
	sleep(3, 20*time.Millisecond)
	// Step one at a time so each wake's recording is observed before
	// the next fire.
	for i, want := range []time.Duration{10, 20, 30} {
		deadline, ok := v.Step()
		if !ok || deadline != want*time.Millisecond {
			t.Fatalf("step %d fired at %v,%v, want %v", i, deadline, ok, want*time.Millisecond)
		}
		waitLen(t, &mu, &order, i+1)
	}
	wg.Wait()
	if fmt.Sprint(order) != "[2 3 1]" {
		t.Fatalf("wake order %v, want [2 3 1]", order)
	}
	if n := v.Advance(time.Second); n != 0 {
		t.Fatalf("extra timers fired: %d", n)
	}
	if now := v.Now(); now != time.Second+30*time.Millisecond {
		t.Fatalf("Now() = %v, want 1.03s", now)
	}
}

// Two sleepers due at the same instant wake in registration order —
// the deterministic tiebreak the (when, seq) heap order pins.
func TestVirtualSameInstantTiebreak(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		v := NewVirtual()
		var order []int
		var mu sync.Mutex
		var wg sync.WaitGroup
		for id := 1; id <= 3; id++ {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				v.Sleep(5 * time.Millisecond)
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			}()
			v.WaitBlocked(id) // registration order = 1, 2, 3
		}
		// Fire one at a time so wake processing order is observable.
		for i := 0; i < 3; i++ {
			deadline, ok := v.Step()
			if !ok || deadline != 5*time.Millisecond {
				t.Fatalf("Step = %v,%v", deadline, ok)
			}
			waitLen(t, &mu, &order, i+1)
		}
		wg.Wait()
		if fmt.Sprint(order) != "[1 2 3]" {
			t.Fatalf("trial %d: same-instant wake order %v, want [1 2 3]", trial, order)
		}
	}
}

// A zero-duration virtual sleep is a scheduling point: it blocks until
// the next advance (even Advance(0)) rather than returning inline.
func TestVirtualZeroDurationSleepOrdering(t *testing.T) {
	v := NewVirtual()
	var woke atomic.Bool
	donech := make(chan struct{})
	go func() {
		v.Sleep(0)
		woke.Store(true)
		close(donech)
	}()
	v.WaitBlocked(1)
	if woke.Load() {
		t.Fatal("Sleep(0) returned before any advance")
	}
	if n := v.Advance(0); n != 1 {
		t.Fatalf("Advance(0) fired %d, want 1", n)
	}
	<-donech
	if v.Now() != 0 {
		t.Fatalf("Advance(0) moved the clock to %v", v.Now())
	}
}

// Timer cancel vs fire: Stop before the deadline wins and the timer
// never fires; Stop after the deadline loses and reports false; and
// the two resolutions are mutually exclusive no matter how close the
// race (here: stop at exactly the pending deadline, before advancing).
func TestVirtualTimerCancelVsFire(t *testing.T) {
	v := NewVirtual()
	tm := v.NewTimer(10 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop before fire reported false")
	}
	if n := v.Advance(time.Second); n != 0 {
		t.Fatalf("stopped timer fired (%d)", n)
	}
	select {
	case <-tm.C():
		t.Fatal("stopped timer's channel closed")
	default:
	}

	tm2 := v.NewTimer(10 * time.Millisecond)
	v.Advance(10 * time.Millisecond)
	if tm2.Stop() {
		t.Fatal("Stop after fire reported cancellation")
	}
	select {
	case <-tm2.C():
	default:
		t.Fatal("fired timer's channel not closed")
	}

	// Exactly-at-deadline: the timer is due but unfired; Stop must
	// still win because no advance has processed it.
	tm3 := v.NewTimer(0)
	if !tm3.Stop() {
		t.Fatal("Stop of due-but-unfired timer reported false")
	}
	if n := v.Advance(0); n != 0 {
		t.Fatalf("cancelled due timer fired (%d)", n)
	}
}

func TestVirtualParkForDoneWake(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	res := make(chan bool, 1)
	go func() { res <- v.ParkFor(time.Hour, done) }()
	v.WaitBlocked(1)
	close(done)
	if <-res {
		t.Fatal("ParkFor reported full elapse after done wake")
	}
	// The withdrawn timer must not fire later.
	if n := v.Advance(2 * time.Hour); n != 0 {
		t.Fatalf("withdrawn park timer fired (%d)", n)
	}

	// Elapse path.
	go func() { res <- v.ParkFor(time.Millisecond, make(chan struct{})) }()
	v.WaitBlocked(1)
	v.Advance(time.Millisecond)
	if !<-res {
		t.Fatal("ParkFor reported early wake with idle done")
	}
}

// --- Virtual: runner mode ---

func TestVirtualRunnerDrivesWorkers(t *testing.T) {
	v := NewVirtual()
	var log []string
	var mu sync.Mutex
	note := func(f string, a ...any) {
		mu.Lock()
		log = append(log, fmt.Sprintf("%v "+f, append([]any{v.Now()}, a...)...))
		mu.Unlock()
	}
	v.Go(func() {
		v.Sleep(10 * time.Millisecond)
		note("w1 tick")
		v.Sleep(20 * time.Millisecond)
		note("w1 done")
	})
	v.Go(func() {
		v.Sleep(15 * time.Millisecond)
		note("w2 done")
	})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[10ms w1 tick 15ms w2 done 30ms w1 done]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("runner log %v, want %v", got, want)
	}
}

func TestVirtualRunnerDeadlock(t *testing.T) {
	v := NewVirtual()
	v.Go(func() {
		v.ParkFor(0, make(chan struct{})) // nobody will ever wake this
	})
	if err := v.Run(); err == nil {
		t.Fatal("Run returned nil for a parked worker with no timers")
	}
}

// Seeded determinism round-trip: a randomized sleep/park workload over
// several workers produces the identical event log on every run with
// the same seed, and a different log for a different seed.
func TestVirtualSeededDeterminismRoundTrip(t *testing.T) {
	run := func(seed uint64) string {
		v := NewVirtual()
		var mu sync.Mutex
		var log []string
		for w := 0; w < 4; w++ {
			w := w
			rng := xrand.NewXorShift64(seed + uint64(w)*1000)
			v.Go(func() {
				for i := 0; i < 8; i++ {
					d := time.Duration(rng.Uint64()%5000) * time.Microsecond
					v.Sleep(d)
					mu.Lock()
					log = append(log, fmt.Sprintf("%v w%d.%d", v.Now(), w, i))
					mu.Unlock()
				}
			})
			// Serialize startup so registration order (the same-instant
			// tiebreak) is part of the seeded schedule, not a race.
			v.WaitBlocked(w + 1)
		}
		if err := v.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(log)
	}
	a, b, c := run(42), run(42), run(43)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a == c {
		t.Fatal("different seeds produced identical schedules")
	}
}
