// Cancellation-contract tests, table-driven over every boundable lock
// in the repository. The package is bounded_test so the table can pull
// in internal/core and internal/locks without an import cycle.
package bounded_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/locks"
)

// boundables enumerates every lock the bounded contract covers: the
// native implementations (Reciprocating variants, spin and queue
// baselines) and representatives of the Polling fallback tier.
func boundables() []struct {
	name string
	mk   func() bounded.Locker
} {
	get := func(l bounded.TryLocker) bounded.Locker { return polling{l} }
	return []struct {
		name string
		mk   func() bounded.Locker
	}{
		// Native tier.
		{"Recipro", func() bounded.Locker { return new(core.Lock) }},
		{"Simplified", func() bounded.Locker { return new(core.SimplifiedLock) }},
		{"SimplifiedPark", func() bounded.Locker { return &core.SimplifiedLock{Park: true} }},
		{"TAS", func() bounded.Locker { return new(locks.TASLock) }},
		{"TTAS", func() bounded.Locker { return new(locks.TTASLock) }},
		{"Ticket", func() bounded.Locker { return new(locks.TicketLock) }},
		{"MCS", func() bounded.Locker { return new(locks.MCSLock) }},
		{"CLH", func() bounded.Locker { return new(locks.CLHLock) }},
		// Polling tier (TryLock-capable locks adapted by PollFor/PollCtx).
		{"Fair/poll", func() bounded.Locker { return get(new(core.FairLock)) }},
		{"TWA/poll", func() bounded.Locker { return get(new(locks.TWALock)) }},
		{"Chen/poll", func() bounded.Locker { return get(new(locks.ChenLock)) }},
		{"Retrograde/poll", func() bounded.Locker { return get(new(locks.RetrogradeLock)) }},
		{"RetroRand/poll", func() bounded.Locker { return get(new(locks.RetrogradeRandLock)) }},
		{"HemLock/poll", func() bounded.Locker { return get(new(locks.HemLock)) }},
		{"FutexMutex/poll", func() bounded.Locker { return get(new(locks.FutexMutex)) }},
	}
}

// polling adapts a TryLock-only lock to the bounded contract the way
// registry.WithBounded does: by polling its TryLock.
type polling struct{ bounded.TryLocker }

func (p polling) LockFor(d time.Duration) bool { return bounded.PollFor(p.TryLock, nil, d) }

func (p polling) LockCtx(ctx context.Context) error { return bounded.PollCtx(p.TryLock, nil, ctx) }

// LockFor(0) must behave exactly like TryLock: immediate success on a
// free lock, immediate failure on a held one, no residue either way.
func TestLockForZeroIsTryLock(t *testing.T) {
	for _, v := range boundables() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			l := v.mk()
			if !l.LockFor(0) {
				t.Fatal("LockFor(0) on free lock failed")
			}
			if l.LockFor(0) {
				t.Fatal("LockFor(0) on held lock succeeded")
			}
			if l.TryLock() {
				t.Fatal("TryLock on held lock succeeded")
			}
			l.Unlock()
			if !l.TryLock() {
				t.Fatal("lock unusable after LockFor(0) episode")
			}
			l.Unlock()
		})
	}
}

// A waiter whose budget expires must return false, must not hold the
// lock afterward, and must return within a small multiple of its
// budget even while the lock stays held throughout.
func TestLockForTimesOutPromptly(t *testing.T) {
	for _, v := range boundables() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			l := v.mk()
			l.Lock()
			const budget = 250 * time.Millisecond
			start := time.Now()
			if l.LockFor(budget) {
				t.Fatal("LockFor acquired a continuously held lock")
			}
			if el := time.Since(start); el > 2*budget {
				t.Fatalf("LockFor(%v) returned after %v (> 2x budget)", budget, el)
			}
			l.Unlock()
			// The abandonment must leave no residue: a fresh acquire
			// and a queued waiter must both work.
			l.Lock()
			done := make(chan struct{})
			go func() {
				l.Lock()
				l.Unlock()
				close(done)
			}()
			time.Sleep(2 * time.Millisecond)
			l.Unlock()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("waiter starved after abandonment")
			}
		})
	}
}

// LockCtx must honor both cancellation flavors: an already-cancelled
// context fails immediately with the context's error, and a deadline
// expiring mid-wait fails within 2x the deadline, never holding the
// lock on the failure path.
func TestLockCtxCancellation(t *testing.T) {
	for _, v := range boundables() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			l := v.mk()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := l.LockCtx(ctx); err != context.Canceled {
				t.Fatalf("LockCtx(cancelled) = %v, want context.Canceled", err)
			}

			l.Lock()
			const budget = 250 * time.Millisecond
			dctx, dcancel := context.WithTimeout(context.Background(), budget)
			start := time.Now()
			err := l.LockCtx(dctx)
			el := time.Since(start)
			dcancel()
			if err == nil {
				t.Fatal("LockCtx acquired a continuously held lock")
			}
			if err != context.DeadlineExceeded {
				t.Fatalf("LockCtx = %v, want context.DeadlineExceeded", err)
			}
			if el > 2*budget {
				t.Fatalf("LockCtx returned after %v (> 2x %v deadline)", el, budget)
			}
			l.Unlock()

			// Free lock: LockCtx must succeed and hold.
			octx, ocancel := context.WithTimeout(context.Background(), time.Second)
			if err := l.LockCtx(octx); err != nil {
				t.Fatalf("LockCtx on free lock = %v", err)
			}
			ocancel()
			l.Unlock()
		})
	}
}

// A cancelled waiter must never end up holding the lock: while a
// holder cycles the lock rapidly, cancellers race tiny deadlines
// against grants. Whatever the outcome of each race, the inside
// counter must stay exact, and failed attempts must leave the
// goroutine lock-free (verified by the holder's continued progress).
func TestCancelledWaiterNeverHoldsLock(t *testing.T) {
	for _, v := range boundables() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			l := v.mk()
			var inside int32
			var stop atomic.Bool
			var wg sync.WaitGroup

			enter := func() {
				if atomic.AddInt32(&inside, 1) != 1 {
					panic("mutual exclusion violated")
				}
				atomic.AddInt32(&inside, -1)
				l.Unlock()
			}

			// Holder lane: ordinary acquire/release churn.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					l.Lock()
					enter()
				}
			}()

			// Canceller lanes: deadlines short enough to usually lose
			// the race to the holder lane.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						if g == 0 {
							if l.LockFor(time.Duration(i%50) * time.Microsecond) {
								enter()
							}
						} else {
							ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%50)*time.Microsecond)
							if l.LockCtx(ctx) == nil {
								enter()
							}
							cancel()
						}
					}
				}(g)
			}

			time.Sleep(200 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
			// Lock must be free and fully usable afterward.
			if !l.TryLock() {
				t.Fatal("lock left held after cancellation stress")
			}
			l.Unlock()
		})
	}
}

// A lock must survive many consecutive abandonments and then admit
// both the abandoning goroutine and fresh waiters normally.
func TestUsableAfterRepeatedAbandonment(t *testing.T) {
	for _, v := range boundables() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			l := v.mk()
			l.Lock()
			for i := 0; i < 32; i++ {
				if l.LockFor(100 * time.Microsecond) {
					t.Fatal("LockFor acquired a held lock")
				}
			}
			l.Unlock()
			for i := 0; i < 100; i++ {
				if !l.LockFor(time.Second) {
					t.Fatal("LockFor on free lock failed after abandonments")
				}
				l.Unlock()
				l.Lock()
				l.Unlock()
			}
		})
	}
}

// Mixed-mode stress: unbounded Lock, bounded LockFor/LockCtx and
// TryLock all race on one lock; the shared counter must come out
// exact. Run under -race this validates the abandonment protocol's
// happens-before edges.
func TestMixedModeStress(t *testing.T) {
	for _, v := range boundables() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			l := v.mk()
			var inside int32
			var acquired atomic.Int64
			shared := 0
			var wg sync.WaitGroup
			const goroutines = 6
			const iters = 400
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						got := false
						switch (g + i) % 4 {
						case 0:
							l.Lock()
							got = true
						case 1:
							got = l.TryLock()
						case 2:
							got = l.LockFor(time.Duration(i%20) * time.Microsecond)
						default:
							ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%20)*time.Microsecond)
							got = l.LockCtx(ctx) == nil
							cancel()
						}
						if !got {
							continue
						}
						if atomic.AddInt32(&inside, 1) != 1 {
							panic("mutual exclusion violated")
						}
						shared++
						acquired.Add(1)
						atomic.AddInt32(&inside, -1)
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if int64(shared) != acquired.Load() {
				t.Fatalf("shared = %d, acquired = %d (lost updates)", shared, acquired.Load())
			}
		})
	}
}

// Locks with no bounded tier offer nothing to poll: the Gated and
// TwoLane appendix variants have neither a safe abandonment protocol
// nor a TryLock doorway.
func TestUnboundableLocks(t *testing.T) {
	for _, l := range []sync.Locker{new(core.GatedLock), new(core.TwoLaneLock)} {
		if _, ok := l.(bounded.TryLocker); ok {
			t.Fatalf("%T offers a TryLock doorway", l)
		}
		if _, ok := l.(bounded.Locker); ok {
			t.Fatalf("%T offers bounded acquisition", l)
		}
	}
}
