package futex

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWaitReturnsImmediatelyOnChangedValue(t *testing.T) {
	var a atomic.Uint32
	a.Store(7)
	done := make(chan struct{})
	go func() {
		Wait(&a, 3) // value is 7, not 3: must not block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait blocked despite value mismatch")
	}
}

func TestWakeReleasesWaiter(t *testing.T) {
	var a atomic.Uint32
	done := make(chan struct{})
	go func() {
		Wait(&a, 0)
		close(done)
	}()
	// Let the waiter register.
	for Waiters(&a) == 0 {
		time.Sleep(time.Millisecond)
	}
	a.Store(1)
	if n := Wake(&a, 1); n != 1 {
		t.Fatalf("Wake released %d waiters, want 1", n)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released by Wake")
	}
}

func TestWakeCountAndFIFO(t *testing.T) {
	var a atomic.Uint32
	const n = 8
	order := make(chan int, n)
	// Launch waiters one at a time so registration (and thus FIFO
	// order) is deterministic.
	for i := 0; i < n; i++ {
		i := i
		go func() {
			Wait(&a, 0)
			order <- i
		}()
		for Waiters(&a) != i+1 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if got := Wake(&a, 3); got != 3 {
		t.Fatalf("Wake(3) released %d", got)
	}
	// Wake pops in FIFO order, so the released set must be the three
	// earliest registrants {0,1,2}; the goroutines race to report, so
	// check set membership rather than report order.
	woken := map[int]bool{}
	for i := 0; i < 3; i++ {
		select {
		case v := <-order:
			woken[v] = true
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for woken waiter")
		}
	}
	for i := 0; i < 3; i++ {
		if !woken[i] {
			t.Errorf("waiter %d not among the first 3 woken (%v)", i, woken)
		}
	}
	if got := Waiters(&a); got != n-3 {
		t.Fatalf("Waiters = %d, want %d", got, n-3)
	}
	if got := Wake(&a, n); got != n-3 {
		t.Fatalf("Wake(%d) released %d, want %d", n, got, n-3)
	}
	for i := 3; i < n; i++ {
		<-order
	}
}

func TestWaitTimeout(t *testing.T) {
	var a atomic.Uint32
	start := time.Now()
	if WaitTimeoutClock(&a, 0, 20*time.Millisecond, nil) {
		t.Fatal("WaitTimeoutClock reported wakeup, want timeout")
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("WaitTimeoutClock returned before deadline")
	}
	if Waiters(&a) != 0 {
		t.Fatal("timed-out waiter left registered")
	}
	// And the success path:
	done := make(chan bool, 1)
	go func() { done <- WaitTimeoutClock(&a, 0, 10*time.Second, nil) }()
	for Waiters(&a) == 0 {
		time.Sleep(time.Millisecond)
	}
	Wake(&a, 1)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitTimeoutClock reported timeout, want wakeup")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("woken WaitTimeoutClock did not return")
	}
}

// The canonical publish-then-wake pattern must not lose wakeups under
// concurrency: a flag flip paired with Wake must always release a
// waiter looping on Wait.
func TestNoLostWakeups(t *testing.T) {
	const rounds = 200
	var flag atomic.Uint32
	for r := 0; r < rounds; r++ {
		flag.Store(0)
		done := make(chan struct{})
		go func() {
			for flag.Load() == 0 {
				Wait(&flag, 0)
			}
			close(done)
		}()
		flag.Store(1)
		Wake(&flag, 1)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: lost wakeup", r)
		}
	}
}

func TestManyAddressesIndependent(t *testing.T) {
	var addrs [32]atomic.Uint32
	var wg sync.WaitGroup
	for i := range addrs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			Wait(&addrs[i], 0)
		}()
	}
	for i := range addrs {
		for Waiters(&addrs[i]) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	// Waking one address must not disturb the others.
	Wake(&addrs[0], 1)
	time.Sleep(10 * time.Millisecond)
	for i := 1; i < len(addrs); i++ {
		if Waiters(&addrs[i]) != 1 {
			t.Fatalf("address %d lost its waiter", i)
		}
	}
	for i := 1; i < len(addrs); i++ {
		Wake(&addrs[i], 1)
	}
	wg.Wait()
}
