package locks

import (
	"sync/atomic"

	"repro/internal/waiter"
)

// TicketLock is the classic FIFO ticket lock (TKT): two words,
// constant-time doorway and release, excellent uncontended latency,
// but all waiters spin globally on the grant word, so each handoff
// invalidates every waiter's cache line — T misses per episode (§6,
// Table 1).
//
// The zero value is an unlocked lock.
type TicketLock struct {
	ticket atomic.Uint64
	grant  atomic.Uint64
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Lock acquires l.
func (l *TicketLock) Lock() {
	tx := l.ticket.Add(1) - 1
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	for l.grant.Load() != tx {
		w.Pause()
	}
}

// Unlock releases l. Only the holder writes grant, so a plain
// load-increment-store suffices (no atomic RMW in Release).
func (l *TicketLock) Unlock() {
	l.grant.Store(l.grant.Load() + 1)
}

// TryLock attempts a non-blocking acquire.
func (l *TicketLock) TryLock() bool {
	g := l.grant.Load()
	return l.ticket.CompareAndSwap(g, g+1)
}
