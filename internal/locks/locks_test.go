package locks

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func baselines() []struct {
	name string
	mk   func() sync.Locker
} {
	return []struct {
		name string
		mk   func() sync.Locker
	}{
		{"TAS", func() sync.Locker { return new(TASLock) }},
		{"TTAS", func() sync.Locker { return new(TTASLock) }},
		{"Ticket", func() sync.Locker { return new(TicketLock) }},
		{"TWA", func() sync.Locker { return new(TWALock) }},
		{"ABQL", func() sync.Locker { return NewABQL(64, nil) }},
		{"MCS", func() sync.Locker { return new(MCSLock) }},
		{"CLH", func() sync.Locker { return new(CLHLock) }},
		{"HemLock", func() sync.Locker { return new(HemLock) }},
		{"Chen", func() sync.Locker { return new(ChenLock) }},
		{"Retrograde", func() sync.Locker { return new(RetrogradeLock) }},
		{"RetrogradeRand", func() sync.Locker { return new(RetrogradeRandLock) }},
		{"FutexMutex", func() sync.Locker { return new(FutexMutex) }},
	}
}

func TestMutualExclusion(t *testing.T) {
	for _, v := range baselines() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			l := v.mk()
			const goroutines = 8
			const iters = 2500
			counter := 0
			var inside int32
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						l.Lock()
						inside++
						if inside != 1 {
							panic("mutual exclusion violated")
						}
						counter++
						inside--
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if counter != goroutines*iters {
				t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
			}
		})
	}
}

func TestUncontendedCycle(t *testing.T) {
	for _, v := range baselines() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			l := v.mk()
			for i := 0; i < 10000; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}

func TestAllWaitersEventuallyAdmitted(t *testing.T) {
	for _, v := range baselines() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			l := v.mk()
			l.Lock()
			const waiters = 12
			var started, finished sync.WaitGroup
			for i := 0; i < waiters; i++ {
				started.Add(1)
				finished.Add(1)
				go func() {
					started.Done()
					l.Lock()
					l.Unlock()
					finished.Done()
				}()
			}
			started.Wait()
			time.Sleep(10 * time.Millisecond)
			l.Unlock()
			done := make(chan struct{})
			go func() { finished.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("waiters starved")
			}
		})
	}
}

func TestPluralLocking(t *testing.T) {
	for _, v := range baselines() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			const depth = 44
			ls := make([]sync.Locker, depth)
			for i := range ls {
				ls[i] = v.mk()
			}
			for round := 0; round < 30; round++ {
				for _, l := range ls {
					l.Lock()
				}
				// Non-LIFO release order: evens forward then odds
				// backward.
				for i := 0; i < depth; i += 2 {
					ls[i].Unlock()
				}
				for i := depth - 1; i >= 1; i -= 2 {
					ls[i].Unlock()
				}
			}
		})
	}
}

// Contended handoff under forced overlap: a yield inside the critical
// section guarantees queue buildup on a single-processor scheduler.
func TestContendedHandoff(t *testing.T) {
	for _, v := range baselines() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			l := v.mk()
			counter := 0
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 600; i++ {
						l.Lock()
						counter++
						if i%4 == 0 {
							runtime.Gosched()
						}
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if counter != 6*600 {
				t.Fatalf("counter = %d, want %d", counter, 6*600)
			}
		})
	}
}

func TestTryLockSemantics(t *testing.T) {
	type tryLocker interface {
		sync.Locker
		TryLock() bool
	}
	mks := []struct {
		name string
		mk   func() tryLocker
	}{
		{"TAS", func() tryLocker { return new(TASLock) }},
		{"TTAS", func() tryLocker { return new(TTASLock) }},
		{"Ticket", func() tryLocker { return new(TicketLock) }},
		{"TWA", func() tryLocker { return new(TWALock) }},
		{"MCS", func() tryLocker { return new(MCSLock) }},
		{"CLH", func() tryLocker { return new(CLHLock) }},
		{"HemLock", func() tryLocker { return new(HemLock) }},
		{"Chen", func() tryLocker { return new(ChenLock) }},
		{"Retrograde", func() tryLocker { return new(RetrogradeLock) }},
		{"RetroRand", func() tryLocker { return new(RetrogradeRandLock) }},
		{"ABQL", func() tryLocker { return NewABQL(8, nil) }},
		{"FutexMutex", func() tryLocker { return new(FutexMutex) }},
	}
	for _, m := range mks {
		m := m
		t.Run(m.name, func(t *testing.T) {
			l := m.mk()
			if !l.TryLock() {
				t.Fatal("TryLock on free lock failed")
			}
			if l.TryLock() {
				t.Fatal("TryLock on held lock succeeded")
			}
			l.Unlock()
			if !l.TryLock() {
				t.Fatal("TryLock after Unlock failed")
			}
			l.Unlock()
		})
	}
}

// The retrograde lock must reproduce Reciprocating admission order:
// with a holder and three queued waiters, admission runs newest-first
// (descending tickets), then FIFO between segments (Appendix G).
func TestRetrogradeAdmissionOrder(t *testing.T) {
	var l RetrogradeLock
	l.Lock() // holder takes ticket 0

	var mu sync.Mutex
	var order []int64
	var wg sync.WaitGroup
	// Enqueue three waiters with deterministic tickets 1,2,3.
	for i := int64(1); i <= 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Lock()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.Unlock()
		}()
		// Wait until the ticket is actually taken so arrival order is
		// deterministic.
		deadline := time.Now().Add(30 * time.Second)
		for l.ticket.Load() != i+1 {
			if time.Now().After(deadline) {
				t.Fatal("ticket never taken")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	l.Unlock()
	wg.Wait()

	want := []int64{3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order %v, want %v (retrograde)", order, want)
		}
	}
}

// Same shape for the randomized variant: all waiters admitted exactly
// once regardless of head/tail extraction choices.
func TestRetrogradeRandAdmitsAll(t *testing.T) {
	for _, period := range []int{1, 2, 8} {
		l := &RetrogradeRandLock{TailPeriod: period}
		counter := 0
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					l.Lock()
					counter++
					if i%8 == 0 {
						runtime.Gosched()
					}
					l.Unlock()
				}
			}()
		}
		wg.Wait()
		if counter != 8*1000 {
			t.Fatalf("period %d: counter = %d, want %d", period, counter, 8*1000)
		}
		if l.ticket.Load() != l.grant.Load() {
			t.Fatalf("period %d: lock not quiesced (ticket %d grant %d)",
				period, l.ticket.Load(), l.grant.Load())
		}
	}
}

func TestABQLCapacity(t *testing.T) {
	l := NewABQL(3, nil)
	if l.Capacity() != 3 {
		t.Fatalf("Capacity = %d", l.Capacity())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewABQL(0) should panic")
		}
	}()
	NewABQL(0, nil)
}

func TestCLHLazyInitRace(t *testing.T) {
	// Many goroutines racing on first use must agree on one dummy.
	for round := 0; round < 50; round++ {
		var l CLHLock
		var wg sync.WaitGroup
		counter := 0
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.Lock()
				counter++
				l.Unlock()
			}()
		}
		wg.Wait()
		if counter != 8 {
			t.Fatalf("round %d: counter = %d", round, counter)
		}
	}
}

// HemLock's release must not retire its element before the successor
// acknowledges: hammer handoffs and rely on -race to catch lifecycle
// violations.
func TestHemLockHandoffLifecycle(t *testing.T) {
	var l HemLock
	var wg sync.WaitGroup
	shared := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				l.Lock()
				shared++
				if i%16 == 0 {
					runtime.Gosched()
				}
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if shared != 8*1500 {
		t.Fatalf("shared = %d", shared)
	}
}

// Ticket and TWA must agree on admission order (TWA only changes the
// waiting mechanism, not the schedule).
func TestTWAFIFOOrder(t *testing.T) {
	var l TWALock
	l.Lock()
	var mu sync.Mutex
	var order []uint64
	var wg sync.WaitGroup
	for i := uint64(1); i <= 5; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Lock()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.Unlock()
		}()
		deadline := time.Now().Add(30 * time.Second)
		for l.ticket.Load() != i+1 {
			if time.Now().After(deadline) {
				t.Fatal("ticket never taken")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	l.Unlock()
	wg.Wait()
	for i := range order {
		if order[i] != uint64(i+1) {
			t.Fatalf("TWA admission order %v, want FIFO", order)
		}
	}
}

func BenchmarkUncontendedBaselines(b *testing.B) {
	for _, v := range baselines() {
		v := v
		b.Run(v.name, func(b *testing.B) {
			l := v.mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}
