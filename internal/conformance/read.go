package conformance

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/lockstat"
	"repro/internal/registry"
	"repro/internal/rwlock"
	"repro/internal/xrand"
)

// CheckReadSharing verifies the read-path contract for entries whose
// lock offers rwlock.RWLocker or rwlock.OptimisticLocker (and skips
// for everyone else):
//
//   - shared readers are actually admitted together (a second reader
//     gets in while the first holds RLock, and a randomized storm's
//     AdmissionLog records MaxShared ≥ 2) while writers fully exclude
//     them (the log's shared/exclusive overlap checks);
//   - optimistic readers never trust torn state: validated sections
//     observed a consistent guarded pair, odd (writer-held) stamps
//     never validate;
//   - a writer conflict storm — with the chaos fault points armed —
//     cannot make OptimisticRead spin unboundedly: the combinators'
//     escalation to the internal/backoff jitter floor (and, for OCC,
//     the real-lock fallback) must let a fixed batch of reads
//     terminate.
func CheckReadSharing(e registry.Entry, o Options) error {
	l := e.New(nil)
	rw, isRW := l.(rwlock.RWLocker)
	opt, isOpt := l.(rwlock.OptimisticLocker)
	if !isRW && !isOpt {
		return skipError("no read-path capability")
	}
	o = o.withDefaults()
	if isRW {
		if err := checkConcurrentReaders(rw); err != nil {
			return err
		}
		if err := checkReaderWriterStorm(rw, o); err != nil {
			return err
		}
	}
	if isOpt {
		if err := checkOptimisticConsistency(opt); err != nil {
			return err
		}
		if err := checkConflictStormTerminates(opt, o); err != nil {
			return err
		}
	}
	return nil
}

// checkConcurrentReaders is the deterministic sharing witness: a
// second reader must be admitted while the first still holds RLock. A
// lock that serializes readers deadlocks here instead, so the wait is
// bounded and reported.
func checkConcurrentReaders(rw rwlock.RWLocker) error {
	rw.RLock()
	admitted := make(chan struct{})
	go func() {
		rw.RLock()
		close(admitted)
		rw.RUnlock()
	}()
	if clock.Wall.ParkFor(10*time.Second, admitted) {
		rw.RUnlock()
		return fmt.Errorf("second reader was not admitted while the first held RLock (readers serialize)")
	}
	rw.RUnlock()
	return nil
}

// checkReaderWriterStorm mixes shared and exclusive acquirers over an
// AdmissionLog: any reader inside with a writer (either direction) is
// a violation, and the storm must exhibit actual reader overlap
// (MaxShared ≥ 2), not just legality.
func checkReaderWriterStorm(rw rwlock.RWLocker, o Options) error {
	log := lockstat.NewAdmissionLog()
	iters := o.Iters / 2
	if iters < 100 {
		iters = 100
	}
	var wg sync.WaitGroup
	for g := 0; g < o.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.NewXorShift64(o.Seed ^ (uint64(g+1) * 0x2545f4914f6cdd1d))
			writer := g%4 == 0
			for i := 0; i < iters; i++ {
				if writer {
					rw.Lock()
					log.Enter(g)
					if rng.Intn(16) == 0 {
						runtime.Gosched()
					}
					log.Exit(g)
					rw.Unlock()
				} else {
					rw.RLock()
					log.EnterShared(g)
					if rng.Intn(4) == 0 {
						runtime.Gosched()
					}
					log.ExitShared(g)
					rw.RUnlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := log.Err(); err != nil {
		return err
	}
	if log.MaxShared() < 2 {
		return fmt.Errorf("readers never overlapped across %d shared admissions (MaxShared=%d) — the shared path appears serialized", log.Len(), log.MaxShared())
	}
	return nil
}

// checkOptimisticConsistency races manual ReadBegin/ReadValidate
// sections against a writer that keeps a guarded pair in lockstep
// (y == x+1): a validated section must have observed a consistent
// pair, and a stamp taken mid-write (odd) or while the writer holds
// the lock must never validate.
func checkOptimisticConsistency(opt rwlock.OptimisticLocker) error {
	var x, y atomic.Uint64
	y.Store(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var g uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			g++
			opt.Lock()
			x.Store(g)
			y.Store(g + 1)
			opt.Unlock()
			runtime.Gosched()
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	validated := 0
	deadline := clock.Wall.Now() + 20*time.Second
	for validated < 200 {
		if clock.Wall.Now() > deadline {
			return fmt.Errorf("optimistic reads starved under a single writer: only %d of 200 sections validated", validated)
		}
		s := opt.ReadBegin()
		if s&1 == 1 {
			if opt.ReadValidate(s) {
				return fmt.Errorf("odd (writer-held) stamp %d validated", s)
			}
			runtime.Gosched()
			continue
		}
		gx, gy := x.Load(), y.Load()
		if opt.ReadValidate(s) {
			if gy != gx+1 {
				return fmt.Errorf("validated section observed torn state: x=%d y=%d", gx, gy)
			}
			validated++
		}
	}
	return nil
}

// checkConflictStormTerminates arms the chaos fault points and storms
// writers while a reader works through a fixed batch of
// OptimisticReads: the batch must finish — bounded hot retries
// escalating to jittered sleeps (and the OCC fallback) may slow it,
// but unbounded spinning or livelock trips the deadline.
func checkConflictStormTerminates(opt rwlock.OptimisticLocker, o Options) error {
	chaos.Enable(chaos.DefaultConfig(o.Seed))
	defer chaos.Disable()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				opt.Lock()
				opt.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	var reads atomic.Uint64
	go func() {
		defer close(done)
		var sink uint64
		for i := 0; i < 50; i++ {
			opt.OptimisticRead(func() { sink++ })
			reads.Add(1)
		}
	}()
	var err error
	if clock.Wall.ParkFor(30*time.Second, done) {
		err = fmt.Errorf("OptimisticRead livelocked under a writer conflict storm: %d of 50 reads completed", reads.Load())
	}
	close(stop)
	wg.Wait()
	return err
}
