package core

import (
	"sync/atomic"
	"time"

	"repro/internal/waiter"
)

// Lock is the canonical Reciprocating Lock of Listing 1.
//
// The lock consists of a single arrival word. Context passed from the
// acquire phase to the matching release (the successor on the entry
// segment and the end-of-segment marker) is kept in owner-owned words
// of the lock body, as in the paper's pthread implementation; the
// Token API variants keep that context with the caller instead, making
// the lock body effectively one word.
//
// The zero value is an unlocked lock ready for use; no constructor or
// destructor is required (§5, §6 "Explicit CTOR/DTOR Required").
type Lock struct {
	arrivals atomic.Pointer[WaitElement]

	// Owner-owned context (protected by the lock itself): the entry-
	// segment successor and end-of-segment marker for the current
	// holder, plus the pool element to recycle at Unlock.
	succ *WaitElement
	eos  *WaitElement
	cur  *WaitElement

	// Policy selects the busy-wait strategy; the zero value is the
	// adaptive spin-then-yield policy.
	Policy waiter.Policy
	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock

	// PoliteRelease conditions the release-path CAS on an immediate
	// prior load, reducing futile CAS attempts when new arrivals are
	// already visible. The paper measured this optimization and found
	// no observable benefit (§4), leaving it off by default; it is
	// kept here for the ablation benchmarks.
	PoliteRelease bool
}

// Token carries acquire-to-release context for the allocation-free
// API, mirroring the succ/eos locals that Listing 1 threads through
// its critical-section lambda.
type Token struct {
	succ *WaitElement
	eos  *WaitElement
	elem *WaitElement
}

// Acquire enters the lock using the caller-supplied wait element e and
// returns the context token that must be passed to Release. The
// element may be reused for another Acquire (on any lock) only after
// the corresponding Release has returned.
func (l *Lock) Acquire(e *WaitElement) Token {
	t, _ := l.acquire(e, 0)
	return t
}

// acquire is Listing 1's doorway and waiting phase, the one body behind
// Acquire, Lock and LockFor. The budget is an absolute deadline on l's
// clock; a zero deadline never times out. A timed-out waiter
// leaves through one of the two exits described in bounded.go and
// reports false, after which e is free for reuse.
func (l *Lock) acquire(e *WaitElement, deadline time.Duration) (Token, bool) {
	// Listing 1 line 17: re-arm the gate before publication.
	e.gate.Store(nil)
	var succ *WaitElement
	eos := e // anticipate uncontended fast path (line 19)

	tail := l.arrivals.Swap(e) // the doorway: one wait-free exchange
	chArrive.Hit()
	if tail != nil {
		// Contention. Coerce LOCKEDEMPTY to nil (line 25): the
		// sentinel means "no successor precedes us on this segment".
		if tail != &lockedEmptySentinel {
			succ = tail
		}

		// Waiting phase: local spinning on our own element. The
		// eventual non-nil Gate value both grants ownership and
		// conveys the end-of-segment address.
		w := waiter.NewClocked(l.Policy, l.Clk)
		timedOut := false
		for {
			eos = e.gate.Load()
			if eos != nil {
				break
			}
			if !timedOut {
				timedOut = !w.PauseBounded(deadline)
				continue
			}
			// Exit 1: self-removal, retried as the threads above us
			// in the LIFO segment drain.
			if l.arrivals.Load() == e {
				chAbandon.Hit()
				if l.arrivals.CompareAndSwap(e, tail) {
					return Token{}, false
				}
			}
			w.Pause()
		}

		// Detect the logical end-of-segment sentinel (line 37): if
		// our successor is the segment terminus — possibly a zombie
		// element buried on the arrival stack — the entry segment is
		// exhausted after us.
		if succ == eos {
			succ = nil
			eos = &lockedEmptySentinel
		}
		if timedOut {
			// Exit 2: accept-then-release — we are momentarily an
			// ordinary owner, so the standard Release preserves
			// succession.
			l.Release(Token{succ: succ, eos: eos, elem: e})
			return Token{}, false
		}
	}
	return Token{succ: succ, eos: eos, elem: e}, true
}

// Release exits the lock using the context produced by Acquire.
func (l *Lock) Release(t Token) {
	if t.succ != nil {
		// Entry segment populated: grant the successor, propagating
		// the end-of-segment identity toward the tail (line 58).
		chGrant.Hit()
		t.succ.gate.Store(t.eos)
		return
	}

	// Entry segment empty; eos is our unlock marker — our own element
	// (fast-path acquire) or LOCKEDEMPTY (granted at a segment end).
	eos := t.eos
	for {
		// Try the uncontended fast-path unlock: the arrival word still
		// holds the marker, and reverting it to nil unlocks (line 66).
		if !l.PoliteRelease || l.arrivals.Load() == eos {
			if l.arrivals.CompareAndSwap(eos, nil) {
				return
			}
		}

		// Threads arrived and pushed onto the arrival stack. Detach the
		// whole segment — it becomes the next entry segment — and grant
		// its head, conveying the end-of-segment marker (lines 73-76).
		// Only the lock holder ever detaches, which is what makes the
		// pop-stack A-B-A immune. (The chaos point sits in the window
		// between the failed fast-path CAS and the detach Swap — the
		// window bounded abandonment must respect; see bounded.go.)
		chDetach.Hit()
		w := l.arrivals.Swap(&lockedEmptySentinel)
		if w != eos && w != &lockedEmptySentinel {
			w.gate.Store(eos)
			return
		}
		// Bounded waiters self-removed the stack back down to our own
		// marker, or to the LOCKEDEMPTY root, between the failed CAS
		// and the detach (see bounded.go: a waiter may restore the tail
		// it displaced). Neither is a waiter; granting it would wedge
		// the lock. The marker — and the zombie-terminus role it
		// carried — is now off the stack, whose root became LOCKEDEMPTY
		// with the Swap above. Retry the unlock with the sentinel as
		// both the comparand and the conveyed end-of-segment.
		eos = &lockedEmptySentinel
	}
}

// Lock acquires l, drawing a wait element from the internal pool. It
// implements sync.Locker together with Unlock. It calls acquire
// directly rather than through lockBounded: the extra call frame
// measurably slowed the contended kvperf scan-batch workload.
func (l *Lock) Lock() {
	e := getElement()
	t, _ := l.acquire(e, 0)
	// Owner-owned context: safe to store in plain fields; successive
	// owners are ordered by the Gate/arrival-word atomics.
	l.succ, l.eos, l.cur = t.succ, t.eos, t.elem
}

// lockBounded is Lock with a budget (see acquire), reporting whether
// it acquired l.
func (l *Lock) lockBounded(deadline time.Duration) bool {
	e := getElement()
	t, ok := l.acquire(e, deadline)
	if !ok {
		putElement(e)
		return false
	}
	l.succ, l.eos, l.cur = t.succ, t.eos, t.elem
	return true
}

// Unlock releases l. It must be called by the holder.
func (l *Lock) Unlock() {
	t := Token{succ: l.succ, eos: l.eos, elem: l.cur}
	l.succ, l.eos, l.cur = nil, nil, nil
	l.Release(t)
	// Recycle only after Release completes: the element's address may
	// have been live context (CAS expectation or eos marker) until
	// just now. TryLock acquisitions have no element.
	if t.elem != nil {
		putElement(t.elem)
	}
}

// TryLock attempts to acquire the lock without waiting and reports
// whether it succeeded. A successful TryLock leaves the arrival word
// in the LOCKEDEMPTY state, which the normal Release path reverts.
func (l *Lock) TryLock() bool {
	if l.arrivals.CompareAndSwap(nil, &lockedEmptySentinel) {
		l.succ, l.eos, l.cur = nil, &lockedEmptySentinel, nil
		return true
	}
	return false
}

// Locked reports whether the lock was held at the instant of the
// load. Intended for tests and diagnostics only.
func (l *Lock) Locked() bool { return l.arrivals.Load() != nil }

// Do runs fn while holding the lock, mirroring the paper's
// critical-section-as-lambda interface (Listing 1's operator+). The
// caller supplies the wait element, enabling allocation-free episodes.
func (l *Lock) Do(e *WaitElement, fn func()) {
	t := l.Acquire(e)
	fn()
	l.Release(t)
}
