package core

import (
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/waiter"
	"repro/internal/xrand"
)

// TwoLaneLock is the Appendix I "2 Lanes" formulation: two concurrent
// pop-stack lanes whose arriving threads pick a lane at random, plus a
// thread-oblivious ticket lock arbitrating between the (at most two)
// lane leaders. The randomized lane selection perturbs the admission
// schedule enough to impose long-term statistical fairness — defeating
// the palindromic admission cycles of §9 — while preserving every
// other Reciprocating property: constant-time arrival and release
// paths, bounded bypass, and single-phase waiting per thread.
//
// The zero value is an unlocked lock ready for use.
type TwoLaneLock struct {
	lanes [2]struct {
		tail atomic.Pointer[gElement]
		_    [pad.SectorSize - 8]byte
	}

	// Leader lock, implemented as a ticket lock. 64-bit tickets make
	// rollover aliasing a non-issue (Appendix G's 200-year argument).
	ticket atomic.Uint64
	grant  atomic.Uint64
	_      [pad.SectorSize - 16]byte

	// cbrn is the counter feeding the Appendix I counter-based RNG
	// (HashPhi32 Fibonacci hashing) for lane selection. The paper
	// keeps it in TLS; a shared counter perturbs at least as strongly.
	cbrn atomic.Uint32

	// Owner-owned context.
	isLeader bool
	lane     int
	prv, eos *gElement
	cur      *gElement

	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// tlToken carries acquire context for the explicit API.
type tlToken struct {
	leader   bool
	lane     int
	prv, eos *gElement
	elem     *gElement
}

// Acquire enters the lock with the supplied element.
func (l *TwoLaneLock) Acquire(e *gElement) tlToken {
	e.eos.Store(nil)
	// Select a lane via a Bernoulli trial on the counter-based RNG.
	lane := int(xrand.HashPhi32(l.cbrn.Add(1)) & 1)

	prv := l.lanes[lane].tail.Swap(e)
	if prv != nil {
		// Follower within this lane's segment.
		w := waiter.New(l.Clk)
		var eos *gElement
		for {
			eos = e.eos.Load()
			if eos != nil {
				break
			}
			w.Pause()
		}
		return tlToken{leader: false, lane: lane, prv: prv, eos: eos, elem: e}
	}
	// Lane leader: acquire the leader ticket lock. With two lanes at
	// most two threads compete here at any time, so a ticket lock
	// scales fine in this regime.
	tx := l.ticket.Add(1) - 1
	w := waiter.New(l.Clk)
	for l.grant.Load() != tx {
		w.Pause()
	}
	return tlToken{leader: true, lane: lane, elem: e}
}

// Release exits the lock.
func (l *TwoLaneLock) Release(t tlToken) {
	if t.leader {
		detached := l.lanes[t.lane].tail.Swap(nil)
		if detached != t.elem {
			// Followers accumulated while we ran; relay ownership
			// down the detached chain, conveying our buried element
			// as the logical end-of-segment. The leader lock remains
			// held by the segment and is surrendered by its terminal
			// element.
			detached.eos.Store(t.elem)
		} else {
			// No followers: release the leader lock directly.
			l.grant.Add(1)
		}
		return
	}
	if t.eos != t.prv {
		// Systolic propagation through the entry segment.
		t.prv.eos.Store(t.eos)
	} else {
		// Terminus — the leader's buried element. The segment is
		// exhausted: surrender the leader lock.
		l.grant.Add(1)
	}
}

// Lock acquires l (sync.Locker).
func (l *TwoLaneLock) Lock() {
	e := getGElement()
	t := l.Acquire(e)
	l.isLeader, l.lane, l.prv, l.eos, l.cur = t.leader, t.lane, t.prv, t.eos, t.elem
}

// Unlock releases l (sync.Locker).
func (l *TwoLaneLock) Unlock() {
	t := tlToken{leader: l.isLeader, lane: l.lane, prv: l.prv, eos: l.eos, elem: l.cur}
	l.isLeader, l.lane, l.prv, l.eos, l.cur = false, 0, nil, nil, nil
	l.Release(t)
	if t.elem != nil {
		putGElement(t.elem)
	}
}

// LeaderLocked reports whether the leader ticket lock appeared held
// (Appendix I's LeaderIsLocked diagnostic).
func (l *TwoLaneLock) LeaderLocked() bool {
	return l.ticket.Load() != l.grant.Load()
}
