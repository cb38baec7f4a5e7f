package locks

import (
	"sync/atomic"

	"repro/internal/futex"
	"repro/internal/waiter"
)

// FutexMutex is the classic three-state futex mutex (Drepper,
// "Futexes Are Tricky") — the shape of the default Linux
// pthread_mutex that §5 contrasts Reciprocating Locks with: compact
// and fast, but non-FIFO, with barging admission and therefore
// unbounded bypass and potential indefinite starvation. It serves as
// the "real-world default" baseline for the bypass-bound experiments.
//
// States: 0 unlocked, 1 locked, 2 locked with (possible) waiters.
// The zero value is an unlocked mutex.
type FutexMutex struct {
	state atomic.Uint32
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Lock acquires m.
func (m *FutexMutex) Lock() {
	if m.state.CompareAndSwap(0, 1) {
		return // uncontended fast path
	}
	// Short adaptive spin before sleeping, like adaptive pthread
	// mutexes.
	w := waiter.New(m.Clk)
	for i := 0; i < 32; i++ {
		if m.state.Load() == 0 && m.state.CompareAndSwap(0, 1) {
			return
		}
		w.Pause()
	}
	// Slow path: advertise waiters and sleep. Swapping 2 both claims
	// the lock when it was free and marks contention when it wasn't.
	for m.state.Swap(2) != 0 {
		// Futex parks bypass Pause; report them to the telemetry
		// sink through the waiter's attached sink.
		if s := w.Sink(); s != nil {
			s.CountPark()
		}
		futex.Wait(&m.state, 2)
	}
}

// Unlock releases m, waking one waiter if contention was advertised.
func (m *FutexMutex) Unlock() {
	if m.state.Swap(0) == 2 {
		futex.Wake(&m.state, 1)
	}
}

// TryLock attempts a non-blocking acquire.
func (m *FutexMutex) TryLock() bool { return m.state.CompareAndSwap(0, 1) }
