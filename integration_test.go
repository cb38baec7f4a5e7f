package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/atomicstruct"
	"repro/internal/kvstore"
	"repro/internal/lockstat"
	"repro/internal/mutexbench"
	"repro/internal/registry"
)

// Integration: the KV store must behave identically no matter which of
// every lock implementation in the repository catalog guards it.
func TestKVStoreUnderEveryLock(t *testing.T) {
	for _, lf := range registry.All() {
		lf := lf
		t.Run(lf.Name, func(t *testing.T) {
			db := kvstore.Open(kvstore.Options{Lock: lf.New(nil), MemTableBytes: 8 << 10})
			const n = 1500
			var wg sync.WaitGroup
			// Two writers partition the keyspace; four readers probe.
			for w := 0; w < 2; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						k := kvstore.Key(uint64(w*n + i))
						db.Put(k, []byte(fmt.Sprintf("v%d-%d", w, i)))
					}
				}()
			}
			for r := 0; r < 4; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						db.Get(kvstore.Key(uint64((r + i) % (2 * n))))
					}
				}()
			}
			wg.Wait()
			for w := 0; w < 2; w++ {
				for i := 0; i < n; i++ {
					v, ok := db.Get(kvstore.Key(uint64(w*n + i)))
					if !ok || string(v) != fmt.Sprintf("v%d-%d", w, i) {
						t.Fatalf("key (%d,%d) = %q,%v", w, i, v, ok)
					}
				}
			}
		})
	}
}

// Integration: the lock-striped atomic struct must not lose CAS-loop
// increments under any lock.
func TestAtomicStructUnderEveryLock(t *testing.T) {
	for _, lf := range registry.All() {
		lf := lf
		t.Run(lf.Name, func(t *testing.T) {
			stripe := atomicstruct.NewStripe(16, func() sync.Locker { return lf.New(nil) })
			a := atomicstruct.New[atomicstruct.S](stripe)
			var wg sync.WaitGroup
			const workers = 4
			const iters = 800
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						cur := a.Load()
						for {
							next := cur
							next.A++
							next.E--
							wit, ok := a.CompareExchange(cur, next)
							if ok {
								break
							}
							cur = wit
						}
					}
				}()
			}
			wg.Wait()
			got := a.Load()
			if got.A != workers*iters || got.E != -workers*iters {
				t.Fatalf("S = %+v, want A=%d E=%d", got, workers*iters, -workers*iters)
			}
		})
	}
}

// Integration: every lock variant, run under N-goroutine contention
// through the lockstat.Instrumented wrapper, must satisfy the
// telemetry invariants — acquisitions == unlocks == N*M, contended ≤
// total, and the latency histograms account for every episode.
func TestInstrumentedInvariantsEveryLock(t *testing.T) {
	const (
		goroutines = 6
		iters      = 300
	)
	for _, lf := range registry.All() {
		lf := lf
		t.Run(lf.Name, func(t *testing.T) {
			st := lockstat.New()
			l := lockstat.Wrap(lf.New(nil), st)
			var shared int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						l.Lock()
						shared++
						if i&31 == 0 {
							runtime.Gosched() // force queues to form
						}
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			const want = goroutines * iters
			if shared != want {
				t.Fatalf("mutual exclusion broken under wrapper: counter = %d, want %d", shared, want)
			}
			s := st.Snapshot()
			if s.Acquisitions != want || s.Unlocks != want {
				t.Errorf("acquisitions/unlocks = %d/%d, want %d/%d", s.Acquisitions, s.Unlocks, want, want)
			}
			if s.Contended > s.Acquisitions {
				t.Errorf("contended %d > acquisitions %d", s.Contended, s.Acquisitions)
			}
			if s.Handovers > s.Unlocks {
				t.Errorf("handovers %d > unlocks %d", s.Handovers, s.Unlocks)
			}
			if got := s.Acquire.Count(); got != s.Acquisitions {
				t.Errorf("acquire histogram count %d != acquisitions %d", got, s.Acquisitions)
			}
			if got := s.Hold.Count(); got != s.Unlocks {
				t.Errorf("hold histogram count %d != unlocks %d", got, s.Unlocks)
			}
			// Six goroutines on one lock must exhibit some contention.
			if s.Contended == 0 {
				t.Errorf("no contended acquisitions recorded across %d contended episodes", want)
			}
		})
	}
}

// Integration: MutexBench itself must count exactly under every lock
// (iteration mode is deterministic).
func TestMutexBenchExactCountsEveryLock(t *testing.T) {
	for _, lf := range registry.All() {
		lf := lf
		t.Run(lf.Name, func(t *testing.T) {
			res := mutexbench.Run(lf, mutexbench.Config{
				Threads:     5,
				Iterations:  400,
				CSSteps:     1,
				NCSMaxSteps: 50,
				Runs:        1,
			})
			var total uint64
			for _, v := range res.PerThread {
				total += v
			}
			if total != 5*400 {
				t.Fatalf("ops = %d, want %d", total, 5*400)
			}
		})
	}
}
