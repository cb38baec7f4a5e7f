package core

import (
	"sync/atomic"

	"repro/internal/waiter"
	"repro/internal/xrand"
)

// FairLock is the §9.4 mitigation applied to the canonical Listing 1
// algorithm: an incoming owner whose entry segment is non-empty
// occasionally — on a Bernoulli trial — defers, immediately ceding
// ownership to its successor and arranging to be re-granted at the
// logical end of the segment. The stochastic perturbation breaks the
// repeating palindromic admission cycles of §9.1 and restores
// long-term statistical fairness.
//
// All reordering is strictly intra-segment, so the bounded-bypass and
// anti-starvation guarantees are preserved. As §9.4 notes, the
// constant-time arrival property is surrendered: a deferring thread
// waits in two phases within one acquisition episode. A thread defers
// at most once per episode.
//
// The deferred thread's identity percolates toward the segment tail
// through the wait elements' deferred fields, alongside the normal
// Gate conveyance; the segment's terminus consumes it and grants the
// deferred thread last.
//
// The zero value is an unlocked lock with the default deferral
// probability, ready for use.
type FairLock struct {
	arrivals atomic.Pointer[WaitElement]

	// DeferProb is the per-acquisition deferral probability in units
	// of 1/256 (0 disables, 256 always defers when possible). The
	// zero value selects DefaultDeferProb.
	DeferProb int

	succ *WaitElement
	eos  *WaitElement
	defp *WaitElement // deferred element carried to Release
	cur  *WaitElement

	rng atomic.Uint64 // xorshift state for the Bernoulli trial

	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock

	deferrals atomic.Uint64
}

// DefaultDeferProb is the default deferral probability (16/256 = 1/16).
const DefaultDeferProb = 16

// fairToken is the acquire-to-release context.
type fairToken struct {
	succ *WaitElement
	eos  *WaitElement
	def  *WaitElement // deferred element to percolate onward
	elem *WaitElement
}

// bernoulli runs one lock-local trial with probability DeferProb/256.
func (l *FairLock) bernoulli() bool {
	p := l.DeferProb
	if p == 0 {
		p = DefaultDeferProb
	}
	// Single-word Marsaglia xorshift (Appendix G's recommendation),
	// advanced with a CAS-free racy update: losing an update merely
	// repeats a draw, which is harmless for a perturbation source.
	x := l.rng.Load()
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.rng.Store(x)
	return int(x&255) < p
}

// Acquire enters the lock with the supplied element.
func (l *FairLock) Acquire(e *WaitElement) fairToken {
	e.gate.Store(nil)
	e.deferred.Store(nil)
	var succ *WaitElement
	eos := e

	tail := l.arrivals.Swap(e)
	if tail == nil {
		// Uncontended fast path: nothing to defer to.
		return fairToken{succ: nil, eos: eos, elem: e}
	}
	if tail != &lockedEmptySentinel {
		succ = tail
	}

	deferred := false
	w := waiter.New(l.Clk)
	for {
		// Waiting phase.
		for {
			eos = e.gate.Load()
			if eos != nil {
				break
			}
			w.Pause()
		}
		d := e.deferred.Swap(nil)

		if succ == eos {
			// Terminus: the segment ends with us. Re-grant any
			// percolated deferred thread as the segment's final
			// member.
			succ = d
			d = nil
			eos = &lockedEmptySentinel
		}
		if succ == nil && d != nil {
			// We were granted as a segment's final member (e.g. we
			// are a re-granted deferred thread) yet carry a deferred
			// element: it becomes our successor so it cannot be
			// dropped.
			succ = d
			d = nil
		}

		// We own the lock. Perhaps defer: only once per episode,
		// only when a successor exists to defer to, and only when no
		// other deferred thread is already percolating.
		if succ != nil && d == nil && !deferred && l.bernoulli() {
			deferred = true
			l.deferrals.Add(1)
			// Re-arm our gate, then cede ownership to succ,
			// registering ourselves as the percolating deferred
			// element. We will be re-granted by the terminus.
			e.gate.Store(nil)
			s := succ
			succ = nil // when re-granted we carry no successor
			s.deferred.Store(e)
			s.gate.Store(eos)
			w.Reset()
			continue
		}
		return fairToken{succ: succ, eos: eos, def: d, elem: e}
	}
}

// Release exits the lock.
func (l *FairLock) Release(t fairToken) {
	if t.succ != nil {
		// Percolate any deferred element toward the tail before the
		// granting store publishes it.
		if t.def != nil {
			t.succ.deferred.Store(t.def)
		}
		t.succ.gate.Store(t.eos)
		return
	}
	// Entry segment empty (and no deferred element can be in hand:
	// the terminus consumed it into succ).
	if l.arrivals.CompareAndSwap(t.eos, nil) {
		return
	}
	w := l.arrivals.Swap(&lockedEmptySentinel)
	w.gate.Store(t.eos)
}

// Lock acquires l (sync.Locker).
func (l *FairLock) Lock() {
	e := getElement()
	t := l.Acquire(e)
	l.succ, l.eos, l.defp, l.cur = t.succ, t.eos, t.def, t.elem
}

// Unlock releases l (sync.Locker).
func (l *FairLock) Unlock() {
	t := fairToken{succ: l.succ, eos: l.eos, def: l.defp, elem: l.cur}
	l.succ, l.eos, l.defp, l.cur = nil, nil, nil, nil
	l.Release(t)
	if t.elem != nil {
		putElement(t.elem)
	}
}

// TryLock attempts a non-blocking acquire. As with the canonical
// variant, success leaves the arrival word in the LOCKEDEMPTY state and
// the normal Release path reverts it; no deferral can occur on a
// try-acquired episode (there is no successor to defer to).
func (l *FairLock) TryLock() bool {
	if l.arrivals.CompareAndSwap(nil, &lockedEmptySentinel) {
		l.succ, l.eos, l.defp, l.cur = nil, &lockedEmptySentinel, nil, nil
		return true
	}
	return false
}

// Deferrals reports how many Bernoulli deferrals have fired.
func (l *FairLock) Deferrals() uint64 { return l.deferrals.Load() }

// Locked reports whether the lock was held at the instant of the load.
func (l *FairLock) Locked() bool { return l.arrivals.Load() != nil }

// seedRNG lets tests make the Bernoulli stream deterministic.
func (l *FairLock) seedRNG(seed uint64) {
	r := xrand.NewXorShift64(seed)
	l.rng.Store(r.Uint64())
}
