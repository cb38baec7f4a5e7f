package conformance

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounded"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/lockstat"
	"repro/internal/registry"
	"repro/internal/xrand"
)

// Options tune the invariant suite. Zero values select defaults.
type Options struct {
	// Seed derives every randomized schedule in the suite; the same
	// seed reproduces the same run.
	Seed uint64
	// Goroutines is the concurrency of the contention checks
	// (default 8).
	Goroutines int
	// Iters is the per-goroutine episode count of the contention
	// checks (default 2000).
	Iters int
	// Schedules is the differential checker's program count
	// (default 100).
	Schedules int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Goroutines == 0 {
		o.Goroutines = 8
	}
	if o.Iters == 0 {
		o.Iters = 2000
	}
	if o.Schedules == 0 {
		o.Schedules = 100
	}
	return o
}

// skipError marks a check that does not apply to the entry; Report
// renders it as a skip, not a failure.
type skipError string

func (s skipError) Error() string { return string(s) }

// Skipped reports whether err is a conformance skip marker.
func Skipped(err error) bool {
	_, ok := err.(skipError)
	return ok
}

// CheckMutualExclusion verifies the guarded-counter invariant under
// seeded randomized goroutine schedules: every critical section
// increments a plain counter and brackets itself in an AdmissionLog
// (which detects overlapping holders), with per-goroutine seeded
// perturbation — occasional yields before and inside the critical
// section — to vary the interleavings from run to run reproducibly.
func CheckMutualExclusion(e registry.Entry, o Options) error {
	o = o.withDefaults()
	l := e.New(nil)
	log := lockstat.NewAdmissionLog()
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < o.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.NewXorShift64(o.Seed + uint64(g)*0x9e3779b9)
			for i := 0; i < o.Iters; i++ {
				if rng.Intn(8) == 0 {
					runtime.Gosched()
				}
				l.Lock()
				log.Enter(g)
				counter++
				if rng.Intn(16) == 0 {
					runtime.Gosched()
				}
				log.Exit(g)
				l.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := log.Err(); err != nil {
		return err
	}
	if want := o.Goroutines * o.Iters; counter != want {
		return fmt.Errorf("guarded counter = %d, want %d (lost increments ⇒ mutual exclusion violated)", counter, want)
	}
	return nil
}

// CheckTryLock verifies TryLock soundness under contention for
// entries whose lock offers TryLock: half the goroutines acquire with
// Lock, half with TryLock retries; successful acquisitions bracket an
// AdmissionLog (no false success — a TryLock success while the lock
// is held would trip the overlap check) and every success is
// released (no lost unlocks — the lock must be immediately
// re-acquirable when the goroutines drain).
func CheckTryLock(e registry.Entry, o Options) error {
	l := e.New(nil)
	tl, ok := l.(bounded.TryLocker)
	if !ok {
		return skipError("no TryLock capability")
	}
	o = o.withDefaults()
	log := lockstat.NewAdmissionLog()
	counter := 0
	var successes, attempts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < o.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.NewXorShift64(o.Seed ^ (uint64(g+1) << 32))
			for i := 0; i < o.Iters; i++ {
				if g%2 == 0 {
					l.Lock()
				} else {
					attempts.Add(1)
					if !tl.TryLock() {
						if rng.Intn(4) == 0 {
							runtime.Gosched()
						}
						continue
					}
				}
				successes.Add(1)
				log.Enter(g)
				counter++
				log.Exit(g)
				l.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := log.Err(); err != nil {
		return fmt.Errorf("false TryLock success: %w", err)
	}
	if int64(log.Len()) != successes.Load() || int64(counter) != successes.Load() {
		return fmt.Errorf("acquire/release imbalance: %d successes, %d admissions, counter %d",
			successes.Load(), log.Len(), counter)
	}
	// No lost unlocks: the drained lock must be immediately acquirable
	// and exclusive.
	if !tl.TryLock() {
		return fmt.Errorf("lock not re-acquirable after %d balanced episodes (lost unlock)", successes.Load())
	}
	if tl.TryLock() {
		return fmt.Errorf("TryLock succeeded on a held lock")
	}
	tl.Unlock()
	return nil
}

// CheckBounded verifies the bounded-acquisition contract for Boundable
// entries: LockFor(0) behaves like TryLock on both free and held
// locks, LockFor respects its deadline while the lock is held — also
// with chaos stalls armed — and LockCtx honors pre-cancelled contexts
// and deadlines, leaving the lock usable after every abandoned wait.
func CheckBounded(e registry.Entry, o Options) error {
	if !e.Boundable() {
		return skipError("not boundable")
	}
	o = o.withDefaults()
	l, err := e.Build(registry.WithBounded())
	if err != nil {
		return err
	}
	bl := l.(bounded.Locker)

	// LockFor(0) == TryLock: succeeds on a free lock, fails fast on a
	// held one.
	if !bl.LockFor(0) {
		return fmt.Errorf("LockFor(0) failed on a free lock")
	}
	bl.Unlock()
	bl.Lock()
	start := clock.Wall.Now()
	if bl.LockFor(0) {
		return fmt.Errorf("LockFor(0) succeeded on a held lock")
	}
	if el := clock.Wall.Now() - start; el > time.Second {
		return fmt.Errorf("LockFor(0) on a held lock took %v", el)
	}

	// Deadline respected while held.
	start = clock.Wall.Now()
	if bl.LockFor(25 * time.Millisecond) {
		return fmt.Errorf("LockFor succeeded on a held lock")
	}
	if el := clock.Wall.Now() - start; el < 25*time.Millisecond || el > 5*time.Second {
		return fmt.Errorf("LockFor(25ms) on a held lock returned after %v", el)
	}

	// Deadline respected under chaos stalls.
	chaos.Enable(chaos.DefaultConfig(o.Seed))
	start = clock.Wall.Now()
	got := bl.LockFor(25 * time.Millisecond)
	chaos.Disable()
	if got {
		return fmt.Errorf("LockFor under chaos succeeded on a held lock")
	}
	if el := clock.Wall.Now() - start; el > 5*time.Second {
		return fmt.Errorf("LockFor(25ms) under chaos returned after %v", el)
	}
	bl.Unlock()

	// Pre-cancelled context: no acquisition, correct error, lock left
	// free.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := bl.LockCtx(ctx); err != context.Canceled {
		return fmt.Errorf("LockCtx(cancelled) = %v, want context.Canceled", err)
	}
	if !bl.TryLock() {
		return fmt.Errorf("lock not free after cancelled LockCtx")
	}
	bl.Unlock()

	// Context deadline while held.
	bl.Lock()
	dctx, dcancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer dcancel()
	if err := bl.LockCtx(dctx); err != context.DeadlineExceeded {
		return fmt.Errorf("LockCtx(deadline) on a held lock = %v, want DeadlineExceeded", err)
	}
	bl.Unlock()

	// Usable after all abandoned waits.
	bl.Lock()
	bl.Unlock()
	return nil
}

// CheckAbandonment verifies abandonment safety with the chaos fault
// points armed: goroutines mix unbounded Lock with short LockFor
// deadlines (many of which abandon mid-queue, amplified by chaos
// delays, preemptions, and spurious wakes); every successful
// acquisition is counted under the lock, and afterwards the counter
// must equal the successes and the lock must still hand itself over
// cleanly.
func CheckAbandonment(e registry.Entry, o Options) error {
	if !e.Boundable() {
		return skipError("not boundable")
	}
	o = o.withDefaults()
	l, err := e.Build(registry.WithBounded())
	if err != nil {
		return err
	}
	bl := l.(bounded.Locker)
	chaos.Enable(chaos.DefaultConfig(o.Seed))
	defer chaos.Disable()

	log := lockstat.NewAdmissionLog()
	counter := 0
	var successes atomic.Int64
	iters := o.Iters / 4
	if iters < 50 {
		iters = 50
	}
	var wg sync.WaitGroup
	for g := 0; g < o.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.NewXorShift64(o.Seed + uint64(g)*0x517cc1b727220a95)
			for i := 0; i < iters; i++ {
				acquired := true
				if rng.Intn(2) == 0 {
					bl.Lock()
				} else {
					acquired = bl.LockFor(time.Duration(rng.Intn(50)) * time.Microsecond)
				}
				if !acquired {
					continue
				}
				successes.Add(1)
				log.Enter(g)
				counter++
				log.Exit(g)
				bl.Unlock()
			}
		}(g)
	}
	wg.Wait()
	chaos.Disable()
	if err := log.Err(); err != nil {
		return err
	}
	if int64(counter) != successes.Load() {
		return fmt.Errorf("counter %d != %d successes after abandonment storm", counter, successes.Load())
	}
	// The lock must have survived the storm.
	bl.Lock()
	bl.Unlock()
	return nil
}
