package locks

import (
	"sync/atomic"

	"repro/internal/waiter"
)

// RetrogradeLock is Appendix G's retrograde ticket lock (Listing 7):
// a classic ticket-lock doorway whose Release walks the entry segment
// in *descending* ticket order, reproducing the admission schedule of
// Reciprocating Locks (LIFO within a segment, FIFO between segments)
// inside a ticket framework. Top and Base are accessed only by the
// current holder — the lock protects its own bookkeeping.
//
// Invariant: Ticket >= Top >= Grant >= Base. Tickets in (Base, Top]
// are the entry segment, admitted in reverse; (Top, Ticket) is the
// arrival segment. 64-bit tickets make overflow a non-issue.
//
// The zero value is an unlocked lock.
type RetrogradeLock struct {
	ticket atomic.Int64
	grant  atomic.Int64
	// top and base are owner-owned (Listing 7: "only the current lock
	// holder accesses Top and Base").
	top  int64
	base int64
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Lock acquires l; the doorway is identical to the classic ticket
// lock.
func (l *RetrogradeLock) Lock() {
	tx := l.ticket.Add(1) - 1
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	for l.grant.Load() != tx {
		w.Pause()
	}
}

// TryLock attempts a non-blocking acquire. The CAS on the ticket word
// is sound because tickets are monotone and Ticket >= Grant always
// holds: success means the ticket word still equalled the loaded grant
// value at the CAS, which pins Grant == Ticket (free) at that instant,
// and we took ticket g exactly as Lock's fetch-add would have. The
// owner-side segment bookkeeping (top/base) is read only at Unlock, so
// a try-acquired episode releases identically to a queued one.
func (l *RetrogradeLock) TryLock() bool {
	g := l.grant.Load()
	return l.ticket.CompareAndSwap(g, g+1)
}

// Unlock releases l, admitting the entry segment in descending ticket
// order and reprovisioning it from the arrivals when exhausted.
func (l *RetrogradeLock) Unlock() {
	g := l.grant.Load() - 1
	if g > l.base {
		// Region of reverse admission: keep walking backward.
		l.grant.Store(g)
		return
	}
	hi := l.top
	l.base = hi
	tmp := l.ticket.Load()
	l.top = tmp - 1
	if tmp == hi+1 {
		// Apparently no waiters: revert to unlocked (Ticket==Grant).
		// Benign if Ticket advances concurrently after the load — the
		// newcomer will be admitted by its own spin once we store.
		l.top = tmp
		l.base = tmp
		l.grant.Store(tmp)
	} else {
		// Waiters exist: the arrival segment (hi, tmp-1] becomes the
		// entry segment, admitted from its most recent arrival.
		l.grant.Store(tmp - 1)
	}
}

// RetrogradeRandLock is Appendix G's randomized succession variant:
// the Release operator usually extracts the successor from the head
// of the remaining entry segment (the most recently arrived thread —
// retrograde order) but occasionally, governed by a CountDown counter
// refreshed from a Marsaglia xorshift generator, extracts from the
// tail instead. Ticket-based succession permits admitting an
// arbitrary segment member in constant time — latitude Reciprocating
// Locks itself lacks — and the stochastic head/tail mix breaks
// long-term palindromic unfairness while preserving bounded bypass
// (all reordering is intra-segment).
//
// The zero value is an unlocked lock with TailPeriod defaulted.
type RetrogradeRandLock struct {
	ticket atomic.Int64
	grant  atomic.Int64

	// Owner-owned: the remaining (un-admitted) entry segment is the
	// half-open ticket interval [lo, hi); seghi is the highest ticket
	// consumed by segments or direct admission so far; countdown
	// triggers the occasional tail extraction; rng drives refreshes.
	lo, hi    int64
	seghi     int64
	countdown int64
	rng       uint64

	// TailPeriod is the mean number of head extractions between tail
	// extractions (the Bernoulli bias M). Zero selects 8.
	TailPeriod int
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// Lock acquires l (classic ticket doorway).
func (l *RetrogradeRandLock) Lock() {
	tx := l.ticket.Add(1) - 1
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.Clk)
	for l.grant.Load() != tx {
		w.Pause()
	}
}

// TryLock attempts a non-blocking acquire; same soundness argument as
// RetrogradeLock.TryLock (lo/hi/seghi are owner-owned and consulted
// only at Unlock).
func (l *RetrogradeRandLock) TryLock() bool {
	g := l.grant.Load()
	return l.ticket.CompareAndSwap(g, g+1)
}

// Unlock releases l.
func (l *RetrogradeRandLock) Unlock() {
	if l.lo < l.hi {
		// Entry segment non-empty: pick head (retrograde) unless the
		// countdown has expired, then pick tail (prograde) and
		// refresh the countdown with a small uniform random value.
		var nxt int64
		l.countdown--
		if l.countdown > 0 {
			l.hi--
			nxt = l.hi
		} else {
			nxt = l.lo
			l.lo++
			l.countdown = 1 + int64(l.nextRand())
		}
		l.grant.Store(nxt)
		return
	}
	// Reprovision: arrivals are (seghi, tmp-1].
	tmp := l.ticket.Load()
	if tmp == l.seghi+1 {
		// No waiters: unlock with Ticket==Grant; the next arrival
		// (ticket tmp) is admitted directly and counts as consumed.
		l.seghi = tmp
		l.grant.Store(tmp)
		return
	}
	// The arrival segment becomes the new entry segment; admit its
	// most recent member now.
	l.lo = l.seghi + 1
	l.hi = tmp - 1 // half-open: members are [lo, tmp-1), plus nxt below
	l.seghi = tmp - 1
	l.grant.Store(tmp - 1)
}

// nextRand draws a small uniform value in [0, TailPeriod).
func (l *RetrogradeRandLock) nextRand() uint32 {
	m := l.TailPeriod
	if m <= 0 {
		m = 8
	}
	x := l.rng
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.rng = x
	// Marsaglia xorshift (the "simple low-latency low-quality"
	// generator Appendix G recommends), inlined to keep Release flat.
	return uint32((uint64(uint32(x)) * uint64(m)) >> 32)
}
