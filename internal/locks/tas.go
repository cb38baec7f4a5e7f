package locks

import (
	"sync/atomic"

	"repro/internal/waiter"
)

// TASLock is a test-and-set spin lock: one word, no fairness, no
// scalability — every acquisition attempt writes the lock word,
// generating an invalidation storm under contention (§6).
//
// The zero value is an unlocked lock.
type TASLock struct {
	word atomic.Uint32
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Lock acquires l.
func (l *TASLock) Lock() {
	w := waiter.New(l.Clk)
	for l.word.Swap(1) != 0 {
		w.Pause()
	}
}

// Unlock releases l.
func (l *TASLock) Unlock() { l.word.Store(0) }

// TryLock attempts a non-blocking acquire.
func (l *TASLock) TryLock() bool {
	return l.word.Swap(1) == 0
}

// TTASLock is the "polite" test-and-test-and-set lock [52]: spin
// reading (shared state, no traffic) and attempt the swap only when
// the word is observed free.
//
// The zero value is an unlocked lock.
type TTASLock struct {
	word atomic.Uint32
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Lock acquires l.
func (l *TTASLock) Lock() {
	w := waiter.New(l.Clk)
	for {
		if l.word.Load() == 0 && l.word.Swap(1) == 0 {
			return
		}
		w.Pause()
	}
}

// Unlock releases l.
func (l *TTASLock) Unlock() { l.word.Store(0) }

// TryLock attempts a non-blocking acquire.
func (l *TTASLock) TryLock() bool {
	return l.word.Load() == 0 && l.word.Swap(1) == 0
}
